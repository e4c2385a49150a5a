#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(size_t{1} << 18);
  open_.reserve(64);
}

int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - instance().epoch_)
      .count();
}

int32_t Tracer::begin(const char* name) {
  if (spare() == 0) {
    ++dropped_;
    return -1;
  }
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, now_ns(), -1, parent});
  open_.push_back(id);
  return id;
}

void Tracer::end(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order (RAII); tolerate an out-of-order close by
  // popping down to the span being closed.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::clear() {
  dropped_ = 0;
  spans_.clear();
  open_.clear();
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.end_ns >= 0 && std::strcmp(s.name, name) == 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

int64_t Tracer::count(const char* name) const {
  int64_t n = 0;
  for (const Span& s : spans_) n += std::strcmp(s.name, name) == 0 ? 1 : 0;
  return n;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t end = s.end_ns >= 0 ? s.end_ns : s.start_ns;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(end - s.start_ns) * 1e-3, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
