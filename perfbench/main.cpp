// perfbench: one run of one workload. Prints the host fingerprint and the
// run's notes, then — as the last line of standard output — one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. Untraced runs report the end-to-end metrics; --trace 1 runs
// report the per-layer ones and write the span trace to --trace-out.
//
//   perfbench --workload pointnet_b8 --seed 1 --seconds 10 --trace 0
//             [--trace-out PATH] [--revision SHA]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "host.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--revision SHA]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, revision;
  RunOptions opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--trace-out" && has_value) {
      opts.trace_path = argv[++i];
    } else if (a == "--revision" && has_value) {
      revision = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || !have_seed || opts.seconds <= 0) return usage(argv[0]);

  std::printf("# host: %s\n",
              host_json(probe_host(revision), opts.seed).c_str());
  const CpuTicks ticks0 = cpu_ticks();
  RunResult r;
  try {
    r = run_workload(workload, opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // An exception fails the operation in flight and the run's verdict.
    r.fail(1, std::string("exception: ") + e.what());
  }
  const CpuTicks ticks1 = cpu_ticks();
  if (ticks1.total > ticks0.total)
    std::printf("# host steal during the run: %.2f%% of CPU time\n",
                100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                    static_cast<double>(ticks1.total - ticks0.total));
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());

  std::string metrics;
  for (const Metric& m : r.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted < 1 ? 1 : r.attempted),
              static_cast<long long>(r.failed), metrics.c_str());
  return 0;
}
