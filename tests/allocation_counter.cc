#include "tests/allocation_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<long> g_allocations{0};
}  // namespace

// Every operator new in the binary, counted while g_count_allocations is set.
void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees a new-expression's pointer reach free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace testing_support {

void StartCountingAllocations() {
  g_allocations = 0;
  g_count_allocations = true;
}

long StopCountingAllocations() {
  g_count_allocations = false;
  return g_allocations.load();
}

}  // namespace testing_support
