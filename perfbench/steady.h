// The steady workloads: B per-model networks compiled into one fused array
// and trained as an LR sweep through a captured, replayed TrainStep, next
// to the same B networks trained one after another through the per-model
// path (nn::Adam, same batches, same step count).
//
// Every step draws fresh per-model batches (a pure function of the seed,
// the step index and the model index), stages them into the tensors the
// captured program reads, and runs one step. The timed loop alternates
// blocks of fused steps with blocks of serial steps, so slow drift in the
// host's clock speed lands on both sides alike.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/train.h"
#include "nn/optim.h"
#include "report.h"

namespace perfbench {

enum class ModelKind { kPointNet, kMlp, kResNet };

struct SteadyConfig {
  std::string name;
  ModelKind kind = ModelKind::kPointNet;
  int64_t B = 8;              // models in the array (power of two)
  int64_t N = 16;             // samples per model per step (power of two)
  bool amp = false;           // f16 autocast + dynamic loss scaling
  int64_t dataset_size = 256; // synthetic samples batches are drawn from
  int64_t block_steps = 4;    // fused steps per fused/serial block
  int64_t min_steps = 32;     // timed fused steps at least (tail rule)
  int64_t tail_window = 100;  // fused steps per step_ms_tail window
  int64_t setup_reps = 5;     // setups timed per run (setup_s, tuning_s)
  int64_t sweep_steps = 16;   // replayed steps in one sweep job (tuning_s)
  int64_t twin_steps = 4;     // replay-vs-eager twin length
  int64_t probe_steps = 20;   // steps per traced probe window
};

/// The workloads' configurations (names are part of BENCHMARK.json).
SteadyConfig pointnet_b8();
SteadyConfig mlp_b8();
SteadyConfig resnet_amp_b4();
/// A seconds-scale variant of `cfg` for smoke tests.
SteadyConfig tiny(SteadyConfig cfg);

/// Per-model batches, generated from the seed: the same (step, model)
/// always yields the same batch, for the fused and the serial side alike.
class DataSource {
 public:
  DataSource(const SteadyConfig& cfg, uint64_t seed);
  /// x [N, ...] and class labels [N] for model b at step `step`.
  std::pair<hfta::Tensor, hfta::Tensor> batch(int64_t step, int64_t b) const;

 private:
  SteadyConfig cfg_;
  uint64_t seed_;
  std::unique_ptr<hfta::data::PointCloudDataset> clouds_;
  std::unique_ptr<hfta::data::ImageDataset> images_;
};

/// One fused array with its optimizer and TrainStep, plus (after
/// attach_serial) the B serial models it was compiled from, each with its
/// own nn::Adam and TrainStep.
struct Job {
  SteadyConfig cfg;
  std::vector<std::shared_ptr<hfta::nn::Module>> nets;  // per-model graphs
  std::shared_ptr<hfta::fused::FusedArray> array;
  std::unique_ptr<hfta::fused::FusedAdam> opt;
  hfta::TrainStep step;
  hfta::LossFn loss;        // the fused loss over the staged tensors
  hfta::Tensor x, labels;   // staged fused batch
  int64_t steps_done = 0;   // fused steps run so far

  std::vector<std::unique_ptr<hfta::nn::Adam>> serial_opts;
  std::vector<std::unique_ptr<hfta::TrainStep>> serial_steps;
  std::vector<hfta::LossFn> serial_loss;
  std::vector<hfta::Tensor> serial_x, serial_y;
  std::vector<int64_t> serial_done;
};

/// Builds the B per-model networks from `init_seed`, compiles the fused
/// array, and sets up FusedAdam (a per-model learning-rate sweep) and a
/// capturing TrainStep (AMP when the config asks for it).
std::unique_ptr<Job> build_job(const SteadyConfig& cfg, uint64_t init_seed,
                               bool capture = true);
/// Batch assembly + pack_channel_fused + TrainStep::stage for `step`.
void stage_fused(Job& job, const DataSource& data, int64_t step);
/// Stages the next batch and runs one fused step; returns the loss.
float fused_step(Job& job, const DataSource& data);
/// Runs fused steps until one is served by replay (the setup's end);
/// returns how many of them had a non-finite loss.
int64_t run_to_first_replay(Job& job, const DataSource& data);
/// Adds the serial side: nn::Adam + TrainStep per per-model network.
void attach_serial(Job& job);
/// Stages model b's next batch and runs one serial step; returns the loss.
float serial_step(Job& job, const DataSource& data, int64_t b);
/// Brings every serial model up to the fused step count.
int64_t catch_up_serial(Job& job, const DataSource& data);

// ---- correctness checks ----------------------------------------------------

/// True when both module trees hold bitwise-identical parameters and
/// buffers, in the same order and shapes.
bool same_state(const hfta::nn::Module& a, const hfta::nn::Module& b);
/// Number of models b whose FusedArray::save_model(b) differs bitwise from
/// serial model b (both must have run the same steps on the same batches).
int64_t fused_serial_mismatches(const Job& job);

/// Two fresh arrays from one seed trained on the same batches, one through
/// captured replay and one eagerly.
struct Twins {
  std::unique_ptr<Job> replay, eager;
  std::vector<float> replay_losses, eager_losses;
};
Twins run_twins(const SteadyConfig& cfg, const DataSource& data,
                uint64_t init_seed);
/// Replay == eager: every loss and the final array state, bitwise.
bool twins_agree(const Twins& t);

/// A finite training loss (non-finite losses fail their operation).
bool finite_loss(float loss);

/// One run of a steady workload: untraced (end-to-end metrics) or traced
/// (per-layer metrics).
RunResult run_steady(const SteadyConfig& cfg, const RunOptions& opts);

/// The array-level per-layer probes of the traced run, shared with the
/// HFHT workload (which probes the array its trials train on). The
/// default-vs-one-lane replay comparison repeats until `seconds` have
/// passed since the probe began; failed checks are recorded in `result`.
struct ArrayProbe {
  double compile_ms = 0, capture_ms = 0;
  double batch_ms = 0, forward_ms = 0, backward_ms = 0;
  double optim_step_ms = 0, zero_grad_ms = 0, serial_step_ms = 0;
  double replay_ms = 0, replay_1lane_ms = 0, fp32_replay_ms = 0;
  double nodes_per_step = 0;
  double heap_allocs_per_step = 0, hits_per_step = 0, cached_mb = 0;
  double new_per_step = 0, new_bytes_per_step = 0;
  double traced_vs_untraced = 0;  // traced samples/s over untraced
  int64_t arrays_compiled = 0, captures = 0, overflow_skips = 0;
  double replay_share = 0;
};
ArrayProbe probe_array(const SteadyConfig& cfg, const DataSource& data,
                       uint64_t init_seed, double seconds, RunResult& result);
/// Appends the array-level per-layer metrics of `p` to `r`.
void add_array_metrics(const ArrayProbe& p, RunResult& r);
/// Ends a traced run: fails it if the span store dropped spans, and writes
/// the Chrome trace to o.trace_path when one is given.
void finish_trace(const std::string& name, const RunOptions& o,
                  RunResult& r);

/// splitmix64 — the seed mixer for every derived stream.
uint64_t mix(uint64_t a, uint64_t b);

}  // namespace perfbench
