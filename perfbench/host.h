// Host fingerprint printed with every result. Rows are only comparable
// when their fingerprints match: a number from one host is never compared
// with a number from another.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  int64_t hardware_threads = 0;
  int64_t lanes = 0;         // hfta::num_threads() — the library default
  std::string simd;          // hfta::vec::simd_name()
  std::string build_type;    // CMAKE_BUILD_TYPE of this binary
  std::string revision;      // source revision (git sha or tree hash)
};

HostInfo probe_host(const std::string& revision);
/// One-line JSON object with the fingerprint plus the run's seed.
std::string host_json(const HostInfo& h, uint64_t seed);

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks:
/// all of it, and the part a hypervisor gave to other guests (steal).
/// The steal share over a run says how contended the host was.
struct CpuTicks {
  uint64_t total = 0, steal = 0;
};
CpuTicks cpu_ticks();

/// Peak resident set size of this process image so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
