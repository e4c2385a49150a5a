// Order statistics used by every report: medians, the quartiles Python's
// statistics.quantiles(n=4) gives (the repetition protocol's spread), and
// the tail-percentile rule for per-step latencies.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
/// Quartiles by the "exclusive" method (statistics.quantiles default), so
/// a C++ report and a Python summary of the same values agree.
Quartiles quartiles(std::vector<double> v);

/// The highest percentile that still has at least `min_beyond` samples
/// above it: over n sorted samples that is the (n - min_beyond)-th smallest,
/// the 100 * (n - min_beyond) / n percentile. With n <= min_beyond no
/// percentile qualifies; the maximum is reported with valid = false.
struct Tail {
  double value = 0;
  double percentile = 0;
  int64_t samples = 0;
  int64_t beyond = 0;  // samples ranked above the reported one
  bool valid = false;
};
Tail tail_percentile(std::vector<double> v, int64_t min_beyond = 10);

/// The tail rule over consecutive windows of `window` samples, reported as
/// the median of the per-window tails: a fixed percentile per workload,
/// however long the run, and one stall moves one window only. A trailing
/// partial window is dropped; fewer samples than one window make one
/// window of all of them.
struct WindowedTail {
  double value = 0;
  double percentile = 0;
  int64_t window = 0;   // samples per window
  int64_t windows = 0;  // windows the median is over
  int64_t samples = 0;  // samples in those windows
  int64_t beyond = 0;   // samples beyond the tail in each window
};
WindowedTail windowed_tail(const std::vector<double>& v, int64_t window,
                           int64_t min_beyond = 10);

}  // namespace perfbench
