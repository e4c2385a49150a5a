// In-memory span recorder for the traced run. A span is {name, start, end,
// parent}; spans nest through a stack of open spans, so a span opened while
// another is open records it as its parent. The recorder is written out as
// Chrome trace-event JSON (viewable in chrome://tracing or Perfetto) when a
// run finishes, and the per-layer metrics are aggregated from the same
// records.
//
// The recorder serves the benchmark's single main thread; it is not
// thread-safe. Storage is reserved up front and never grows, so opening a
// span never allocates during a measured window: a span opened while the
// store is full is dropped and counted instead. Callers that record for a
// while bound themselves by spare(); a run with dropped spans fails.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal; compared by content
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a root span
  };

  static Tracer& instance();

  /// Turns recording on or off; off makes ScopedSpan a single branch.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; -1 (nothing recorded) when the store is full.
  int32_t begin(const char* name);
  void end(int32_t id);
  /// Renames a recorded span (for spans classified after they close).
  void rename(int32_t id, const char* name) {
    spans_[static_cast<size_t>(id)].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Spans that can still be recorded, and spans dropped since clear().
  size_t spare() const { return spans_.capacity() - spans_.size(); }
  int64_t dropped() const { return dropped_; }
  void clear();

  /// Durations (ms) of every closed span named `name`, in record order.
  std::vector<double> durations_ms(const char* name) const;
  /// Number of spans named `name`.
  int64_t count(const char* name) const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// each event's args carry its span id and parent id. False on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  Tracer();
  static int64_t now_ns();

  bool enabled_ = false;
  int64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span over the enclosing scope; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().begin(name)
                                         : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::instance().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t id_;
};

}  // namespace perfbench
