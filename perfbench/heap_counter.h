// Process-wide operator new counter. Only the traced binary (and the
// tests) link the counting replacement (heap_counter.cpp); the untraced
// binary links heap_counter_off.cpp, so its timed loop runs the toolchain's
// own operator new with no counter on the path.
#pragma once

#include <cstdint>

namespace perfbench::heap {

struct Count {
  uint64_t calls = 0;  // operator new calls (all forms, all threads)
  uint64_t bytes = 0;  // bytes those calls requested
};

/// True when this binary replaces operator new with the counting form.
bool counting();
/// Cumulative counts since process start (zeros when not counting).
Count snapshot();

}  // namespace perfbench::heap
