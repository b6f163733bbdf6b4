#include "tests/allocation_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<long> g_allocations{0};
std::atomic<long> g_deallocations{0};

void CountDelete(void* p) {
  if (p != nullptr && g_count_allocations.load(std::memory_order_relaxed)) {
    g_deallocations.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

// Every operator new and delete in the binary, counted while g_count_allocations is set.
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
[[gnu::noinline]] void operator delete(void* p) noexcept {
  CountDelete(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  CountDelete(p);
  std::free(p);
}

namespace testing_support {

void StartCountingAllocations() {
  g_allocations = 0;
  g_deallocations = 0;
  g_count_allocations = true;
}

AllocationCounts StopCountingAllocations() {
  g_count_allocations = false;
  return AllocationCounts{g_allocations.load(), g_deallocations.load()};
}

}  // namespace testing_support
