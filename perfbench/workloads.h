// The workload registry: names (fixed; BENCHMARK.json and later work refer
// to them), their runners, and the metric names each run must report.
#pragma once

#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs workload `name` (small = the seconds-scale smoke configuration).
/// Throws std::invalid_argument for an unknown name.
RunResult run_workload(const std::string& name, const RunOptions& opts,
                       bool small = false);

/// Metric names an untraced run reports, and those a traced run reports.
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

}  // namespace perfbench
