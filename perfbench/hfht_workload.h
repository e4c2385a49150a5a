// The tuning workload: Hyperband over PointNet-tiny trials trained on real
// fused arrays through hfht::run_tuning and FusedTrainingExecutor (capture
// on). max_array_size is below the first rung's size, so rungs are chunked
// and survivors merge through FusionPlan::repack_multi. The serial
// baseline is the same search with max_array_size = 1: every trial trains
// alone, one after another.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hfht/executor.h"
#include "report.h"
#include "steady.h"

namespace perfbench {

struct HfhtConfig {
  std::string name = "hfht_hyperband";
  int64_t max_epochs_r = 4;
  int64_t eta = 2;
  int64_t max_array_size = 2;  // below the first rung (4 trials)
  int64_t batch_size = 8;      // N, pinned so every rung is one partition
  int64_t dataset_size = 64;   // samples per trial epoch
  int64_t eval_size = 16;
  /// Timed fused (and serial) searches at least. step_ms_tail is taken
  /// over windows of this many searches' trials: every search runs the same
  /// trials, so the window and its percentile are fixed per workload.
  int64_t min_searches = 9;
  int64_t setup_reps = 9;
  /// The trial array probed for setup_s and the per-layer array metrics:
  /// PointNet-tiny at B = max_array_size, N = batch_size.
  SteadyConfig array;
};

HfhtConfig hfht_hyperband();
HfhtConfig tiny(HfhtConfig cfg);

/// TrialExecutor decorator: times every batch (one operation per trial),
/// counts trained samples, and flags non-finite scores.
class TimedExecutor : public hfta::hfht::TrialExecutor {
 public:
  TimedExecutor(hfta::hfht::TrialExecutor& inner, int64_t samples_per_epoch)
      : inner_(inner), samples_per_epoch_(samples_per_epoch) {}
  hfta::hfht::ExecutionReport run(
      const std::vector<hfta::hfht::Trial>& batch) override;

  double executor_s = 0;
  int64_t batches = 0, trials = 0, samples = 0, bad_scores = 0;
  std::vector<double> trial_ms;  // batch time / batch size, per trial

 private:
  hfta::hfht::TrialExecutor& inner_;
  int64_t samples_per_epoch_;
  std::map<hfta::hfht::ParamSet, int64_t> epochs_;  // trained so far
};

struct SearchOutcome {
  double wall_s = 0, executor_s = 0;
  int64_t batches = 0, trials = 0, samples = 0, bad_scores = 0;
  std::vector<double> trial_ms;
  double max_diff = 0;  // fused vs serial (verify runs only)
  int64_t compiled = 0, repacked = 0, multi_source = 0;
  int64_t captures = 0, replays = 0, steps = 0;
};
/// One whole Hyperband search; `verify` trains serial twins alongside.
SearchOutcome run_search(const HfhtConfig& cfg, uint64_t seed,
                         int64_t max_array_size, bool verify);
/// The verified search's audit: fused == serial exactly, scores finite.
bool search_audit_passes(const SearchOutcome& s);

RunResult run_hfht(const HfhtConfig& cfg, const RunOptions& opts);

}  // namespace perfbench
