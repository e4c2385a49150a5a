#include "host.h"

#include <fstream>
#include <sstream>
#include <thread>

#include "core/parallel.h"
#include "core/vec.h"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

HostInfo probe_host(const std::string& revision) {
  HostInfo h;
  h.cpu_model = cpu_model();
  h.hardware_threads = std::thread::hardware_concurrency();
  h.lanes = hfta::num_threads();
  h.simd = hfta::vec::simd_name();
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.revision = revision.empty() ? "unknown" : revision;
  return h;
}

std::string host_json(const HostInfo& h, uint64_t seed) {
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << escape(h.cpu_model)
    << "\", \"hardware_threads\": " << h.hardware_threads
    << ", \"lanes\": " << h.lanes << ", \"simd\": \"" << escape(h.simd)
    << "\", \"build_type\": \"" << escape(h.build_type)
    << "\", \"revision\": \"" << escape(h.revision)
    << "\", \"seed\": " << seed << "}";
  return o.str();
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launcher's footprint when that was
  // larger. VmHWM is this image's own high-water mark.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0;
}

}  // namespace perfbench
