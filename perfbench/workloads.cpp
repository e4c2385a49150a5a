#include "workloads.h"

#include <stdexcept>

#include "hfht_workload.h"
#include "steady.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pointnet_b8", "mlp_b8", "resnet_amp_b4", "hfht_hyperband"};
  return names;
}

RunResult run_workload(const std::string& name, const RunOptions& opts,
                       bool small) {
  if (name == "hfht_hyperband") {
    const HfhtConfig c = hfht_hyperband();
    return run_hfht(small ? tiny(c) : c, opts);
  }
  SteadyConfig c;
  if (name == "pointnet_b8") {
    c = pointnet_b8();
  } else if (name == "mlp_b8") {
    c = mlp_b8();
  } else if (name == "resnet_amp_b4") {
    c = resnet_amp_b4();
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return run_steady(small ? tiny(c) : c, opts);
}

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = {
      "samples_per_s", "step_ms_p50", "step_ms_tail", "serial_samples_per_s",
      "setup_s",       "peak_rss_mb", "tuning_s"};
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = {
      "data.batch_ms",
      "hfta.fused_ops.forward_ms",
      "autograd.backward_ms",
      "hfta.fused_optim.step_ms",
      "hfta.fused_optim.zero_grad_ms",
      "nn.optim.step_ms",
      "hfta.train.replay_ms",
      "autograd.nodes_per_step",
      "core.parallel.thread_speedup",
      "core.storage_pool.heap_allocs_per_step",
      "core.storage_pool.hits_per_step",
      "core.storage_pool.cached_mb",
      "heap.new_per_step",
      "heap.new_bytes_per_step",
      "hfta.fusion.compile_ms",
      "hfta.train.capture_ms",
      "hfta.loss_scaling.fp32_replay_ms",
      "trace.samples_per_s_ratio",
      "hfta.fusion.arrays_compiled",
      "hfta.fusion.repacks",
      "hfta.fusion.multi_source_repacks",
      "hfta.train.captures",
      "hfta.train.replay_share",
      "hfht.executor_ms",
      "hfht.batches",
      "hfht.tuner_ms",
      "hfta.loss_scaling.overflow_skips"};
  return names;
}

}  // namespace perfbench
