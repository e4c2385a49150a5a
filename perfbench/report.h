// What one benchmark run reports: the operation tally, the correctness
// verdict, and named metrics with units. main.cpp prints it as the run's
// final JSON line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;  // operations: training steps, or HFHT trials
  int64_t failed = 0;     // non-finite loss, exception, failed check
  std::vector<Metric> metrics;
  /// Human-readable context printed before the JSON line (which
  /// percentile step_ms_tail is, check outcomes, trace file path).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check: `count` operations fail and the run is
  /// marked incorrect.
  void fail(int64_t count, const std::string& why) {
    failed += count;
    correct = false;
    notes.push_back("FAILED: " + why);
  }
};

/// Options every workload runner receives from the command line.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event JSON (traced run only)
};

}  // namespace perfbench
