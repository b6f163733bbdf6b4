// Counts operator new calls. A test binary that uses this links tests/allocation_counter.cc,
// which replaces the global operator new and delete.

#ifndef TESTS_ALLOCATION_COUNTER_H_
#define TESTS_ALLOCATION_COUNTER_H_

namespace testing_support {

void StartCountingAllocations();
// The operator new calls since StartCountingAllocations.
long StopCountingAllocations();

// The operator new calls that f() makes.
template <typename F>
long CountAllocations(F&& f) {
  StartCountingAllocations();
  f();
  return StopCountingAllocations();
}

}  // namespace testing_support

#endif  // TESTS_ALLOCATION_COUNTER_H_
