// Fiber stack allocation and recycling.
//
// Each user-level thread gets an mmap'd stack with an inaccessible guard page below it, so a
// stack overflow faults instead of silently corrupting a neighboring thread's stack — the
// failure mode the paper's task-rejuvenation paradigm (Section 4.5) exists to recover from.
//
// Creating a stack is two syscalls (mmap + mprotect) plus a page fault per page touched, and
// tearing one down is a third syscall; for the fork-heavy workloads the paper describes (Cedar
// forks thousands of short-lived threads, Table 1) that cost dominates fiber creation.
// StackPool recycles released stacks on free lists keyed by size class, pages and all, so a
// FORK usually reuses a mapping whose pages are already resident: no syscall, no fault.

#ifndef SRC_PCR_STACK_H_
#define SRC_PCR_STACK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace pcr {

class FiberStack {
 public:
  // An empty stack (no mapping); assign or move a real one into it.
  FiberStack() = default;

  // Allocates a stack with at least `usable_bytes` of usable space (rounded up to whole pages)
  // plus one guard page. Aborts on allocation failure with the errno in the message; call sites
  // that can survive failure should use TryCreate instead.
  explicit FiberStack(size_t usable_bytes);
  ~FiberStack();

  // Fallible allocation: returns an empty stack on mmap/mprotect failure and, with `error`
  // non-null, describes the failure including strerror(errno).
  static FiberStack TryCreate(size_t usable_bytes, std::string* error = nullptr);

  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;
  FiberStack(FiberStack&& other) noexcept;
  FiberStack& operator=(FiberStack&& other) noexcept;

  // Lowest usable address (just above the guard page).
  void* base() const { return usable_base_; }
  size_t size() const { return usable_bytes_; }

  // Total bytes of address space reserved, including the guard page.
  size_t reserved_bytes() const { return mapping_bytes_; }

  // The usable size a request for `usable_bytes` actually gets (page-rounded, with the same
  // floor the constructor applies). StackPool keys its size classes on this.
  static size_t UsableSize(size_t usable_bytes);

  // Address space a request for `usable_bytes` reserves, guard page included. StackPool's
  // capacity-pressure check uses this to price an acquire before mapping anything.
  static size_t ReservedSize(size_t usable_bytes);

 private:
  void Release();

  void* mapping_ = nullptr;
  void* usable_base_ = nullptr;
  size_t mapping_bytes_ = 0;
  size_t usable_bytes_ = 0;
};

// Cumulative pool accounting. Byte figures count reserved address space (guard page included),
// matching Scheduler::stack_bytes_reserved(). The peaks are the Section 5.1 memory story in
// pool terms: how much address space fiber churn actually pinned at once.
struct StackPoolStats {
  uint64_t acquires = 0;        // total Acquire calls
  uint64_t pool_hits = 0;       // acquires served from a free list (no mmap)
  uint64_t releases = 0;        // stacks handed back
  uint64_t drops = 0;           // releases unmapped because the pool was at capacity
  size_t live_bytes = 0;        // reserved bytes currently checked out
  size_t peak_live_bytes = 0;
  size_t pooled_bytes = 0;      // reserved bytes parked on free lists
  size_t peak_pooled_bytes = 0;
};

// Free lists of guard-paged stacks, keyed by usable size class. Thread-compatible, not
// thread-safe: each scheduler (and each explorer or campaign worker) owns its own pool. A
// parked stack keeps the pages it held while it was live, so it costs no RSS beyond what its
// users already had resident, and a recycled stack starts with its last user's bytes.
class StackPool {
 public:
  // `max_pooled_bytes` caps reserved address space parked on free lists; releases past the cap
  // unmap instead of pooling.
  explicit StackPool(size_t max_pooled_bytes = kDefaultMaxPooledBytes);
  ~StackPool() = default;

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  // Returns a stack whose usable size is FiberStack::UsableSize(usable_bytes) — from the
  // matching free list when possible, freshly mapped otherwise. `*from_pool` (optional)
  // reports which.
  FiberStack Acquire(size_t usable_bytes, bool* from_pool = nullptr);

  // Fallible acquire: fails (returns false, leaves `*out` empty) instead of aborting when the
  // pool is under capacity pressure (set_max_live_bytes) or the kernel refuses the mapping.
  // On failure with `error` non-null, describes the cause.
  bool TryAcquire(size_t usable_bytes, FiberStack* out, bool* from_pool = nullptr,
                  std::string* error = nullptr);

  // Whether TryAcquire(usable_bytes) would pass the capacity-pressure check right now (it can
  // still fail if the kernel refuses the mapping).
  bool HasCapacity(size_t usable_bytes) const;

  // Caps reserved address space checked out at once (capacity-pressure mode; 0 = unlimited,
  // the default). TryAcquire fails rather than exceed it — the hook fault injection and
  // resource-exhaustion tests use to make stack acquisition fail on demand.
  void set_max_live_bytes(size_t bytes) { max_live_bytes_ = bytes; }
  size_t max_live_bytes() const { return max_live_bytes_; }

  // Hands a stack back for reuse, contents as its user left them (under ASan, with the shadow
  // unpoisoned); the guard page stays in place. Past max_pooled_bytes the stack is unmapped
  // instead.
  void Release(FiberStack stack);

  // Unmaps every parked stack (checked-out stacks are unaffected).
  void Clear();

  const StackPoolStats& stats() const { return stats_; }
  size_t pooled_stacks() const;

  static constexpr size_t kDefaultMaxPooledBytes = size_t{256} << 20;  // 256 MiB

 private:
  size_t max_pooled_bytes_;
  size_t max_live_bytes_ = 0;  // 0 = unlimited
  std::unordered_map<size_t, std::vector<FiberStack>> free_;  // usable size -> parked stacks
  StackPoolStats stats_;
};

}  // namespace pcr

#endif  // SRC_PCR_STACK_H_
