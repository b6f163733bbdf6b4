// Counts operator new and operator delete calls. A test binary that uses this links
// tests/allocation_counter.cc, which replaces the global operator new and delete.

#ifndef TESTS_ALLOCATION_COUNTER_H_
#define TESTS_ALLOCATION_COUNTER_H_

namespace testing_support {

struct AllocationCounts {
  long news = 0;     // operator new calls
  long deletes = 0;  // operator delete calls on a non-null pointer
  // Blocks allocated and not freed: above zero, the counted code kept or leaked heap.
  long net() const { return news - deletes; }
};

void StartCountingAllocations();
// The calls since StartCountingAllocations.
AllocationCounts StopCountingAllocations();

// The calls that f() makes.
template <typename F>
AllocationCounts CountAllocations(F&& f) {
  StartCountingAllocations();
  f();
  return StopCountingAllocations();
}

}  // namespace testing_support

#endif  // TESTS_ALLOCATION_COUNTER_H_
