// Counting replacements for the global allocation functions. The plain and
// aligned forms count; libstdc++'s array and nothrow forms forward to these,
// so every operator new in the process is seen. Deallocation stays the
// library's (free), which matches malloc/aligned_alloc below.
#include <atomic>
#include <cstdlib>
#include <new>

#include "heap_counter.h"

namespace {
std::atomic<uint64_t> g_calls{0};
std::atomic<uint64_t> g_bytes{0};

void note(std::size_t size) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  note(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  note(size);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench::heap {

bool counting() { return true; }

Count snapshot() {
  return {g_calls.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench::heap
