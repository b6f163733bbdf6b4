// User-level execution contexts (fibers).
//
// A Fiber runs a callable on its own stack and can suspend back to whoever resumed it. The
// scheduler multiplexes all simulated threads over the host thread with Resume/Suspend pairs;
// no OS concurrency is involved, which is what makes runs deterministic.
//
// Switching is the hand-rolled assembly fast path from src/pcr/context.h by default (~20 ns
// per switch: callee-saved registers + stack pointer only); build with PCR_FIBER_UCONTEXT for
// the portable swapcontext fallback (~1 µs: every switch saves/restores the signal mask via
// sigprocmask). Both paths carry the AddressSanitizer fiber-switch annotations; the fast path
// additionally carries ThreadSanitizer fiber annotations (TSan handles swapcontext itself via
// its interceptor).

#ifndef SRC_PCR_FIBER_H_
#define SRC_PCR_FIBER_H_

#include <cstdint>
#include <functional>

#include "src/pcr/context.h"
#include "src/pcr/stack.h"

#if PCR_FIBER_USE_UCONTEXT
#include <ucontext.h>
#endif

namespace pcr {

class Fiber {
 public:
  using Entry = std::function<void()>;

  // The entry callable must not let exceptions escape (the scheduler wraps thread bodies in a
  // catch-all before handing them to Fiber).
  Fiber(Entry entry, size_t stack_bytes);

  // Pool-aware variant: runs on `stack` and hands it back to `release_to` (which must outlive
  // the fiber) on destruction instead of unmapping it.
  Fiber(Entry entry, FiberStack stack, StackPool* release_to);

  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Switches the caller into the fiber; returns when the fiber calls Suspend or its entry
  // finishes. Must not be called on a finished fiber (aborts with the fiber's debug id).
  void Resume();

  // Switches from the fiber back to its most recent resumer. Must be called on this fiber.
  void Suspend();

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  // Address space reserved for this fiber's stack (including the guard page). PCR "allocates
  // virtual memory for the maximum possible stack size of each thread", which is why forked
  // sleepers became too expensive (Section 5.1); this makes that cost observable.
  size_t stack_reserved_bytes() const { return stack_.reserved_bytes(); }
  // True when `address` lies in this fiber's usable stack.
  bool StackContains(const void* address) const {
    const auto base = reinterpret_cast<uintptr_t>(stack_.base());
    const auto p = reinterpret_cast<uintptr_t>(address);
    return p >= base && p - base < stack_.size();
  }

  // Identifies the fiber in misuse diagnostics (the scheduler sets the owning ThreadId).
  void set_debug_id(uint32_t id) { debug_id_ = id; }
  uint32_t debug_id() const { return debug_id_; }

  // The fiber currently executing on this OS thread, or nullptr when on the host stack.
  static Fiber* Current();

 private:
  // Checkpoint (src/pcr/checkpoint.h) saves/restores stack bytes and the suspended context_
  // plus the started_/finished_ flags directly; the public API has no reason to expose them.
  friend class Checkpoint;

#if PCR_FIBER_USE_UCONTEXT
  static void Trampoline();
#else
  static void Trampoline(ContextTransfer transfer);
#endif
  [[noreturn]] void AbortResumedAfterFinish();

  FiberStack stack_;
  StackPool* release_to_ = nullptr;
#if PCR_FIBER_USE_UCONTEXT
  ucontext_t context_ = {};
  ucontext_t resumer_ = {};
#else
  FiberContext context_ = nullptr;  // valid while suspended
  FiberContext resumer_ = nullptr;  // valid while running
#endif
  Entry entry_;
  uint32_t debug_id_ = 0;
  bool started_ = false;
  bool finished_ = false;

  // AddressSanitizer fiber-switch bookkeeping (see fiber.cc); unused when not sanitized.
  // ASan tracks one shadow "fake stack" per execution context — without the switch
  // annotations, stack-use-after-return checking misfires across context switches.
  void* asan_resumer_fake_stack_ = nullptr;
  void* asan_fiber_fake_stack_ = nullptr;
  const void* asan_resumer_bottom_ = nullptr;
  size_t asan_resumer_size_ = 0;

  // ThreadSanitizer fiber handles (fast path only; see fiber.cc). Unused when not sanitized.
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
};

}  // namespace pcr

#endif  // SRC_PCR_FIBER_H_
