#include "src/pcr/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "src/pcr/errors.h"
#include "src/pcr/fiber.h"
#include "src/pcr/runtime.h"
#include "src/pcr/scheduler.h"
#include "src/trace/tracer.h"

namespace pcr {

namespace {

// Same-address stack restore works only when (a) the fiber backend keeps its saved context as
// a plain stack pointer (the assembly fast path; ucontext_t carries a signal mask and possibly
// FP environment that memcpy must not resurrect) and (b) no sanitizer keeps per-frame shadow
// state (ASan fake stacks / TSan fiber handles cannot be rewound by copying program stacks).
#if PCR_FIBER_USE_UCONTEXT
constexpr bool kCheckpointSupported = false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCheckpointSupported = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kCheckpointSupported = false;
#else
constexpr bool kCheckpointSupported = true;
#endif
#else
constexpr bool kCheckpointSupported = true;
#endif

// Saved-context slack: the saved stack pointer is the lowest address the suspended fiber's
// frames occupy, except that the innermost function may keep live data in the x86-64 red zone
// (128 bytes below SP). Saving the superset is harmless on aarch64.
constexpr size_t kRedZoneBytes = 128;

// Live checkpoints on this thread, oldest first. Checkpoints must nest LIFO and Restore must
// target the newest live one: restore memcpy's fiber stacks same-address, so rewinding an
// outer checkpoint while an inner one is live would overwrite the frames the inner snapshot's
// pins still describe, and out-of-order destruction would unpin fibers an inner snapshot
// depends on. The explorer's branch tree guarantees this by scoping; the guard turns a future
// violation into an immediate diagnostic instead of silent stack corruption. thread_local:
// each explorer worker drives its own scheduler on its own OS thread.
thread_local std::vector<const Checkpoint*> g_live_checkpoints;

void RequireNewest(const Checkpoint* ckpt, const char* verb) {
  if (g_live_checkpoints.empty() || g_live_checkpoints.back() != ckpt) {
    std::fprintf(stderr,
                 "pcr: Checkpoint::%s violates LIFO nesting (%zu live on this thread)\n", verb,
                 g_live_checkpoints.size());
    std::abort();
  }
}

// A fiber can suspend mid-unwind (~MonitorGuard's Exit charges virtual time). The exception in
// flight lives on the heap, and the C++ runtime counts it per OS thread; restoring stacks
// rewinds neither. A snapshot taken in that window resurrects frames whose exception is gone;
// a restore made in it leaves the count raised for good. Callers recompute from zero instead.
void RequireNoExceptionInFlight(const char* verb) {
  if (std::uncaught_exceptions() > 0) {
    std::fprintf(stderr,
                 "pcr: Checkpoint::%s with an exception in flight (%d uncaught on this thread)\n",
                 verb, std::uncaught_exceptions());
    std::abort();
  }
}

}  // namespace

bool Checkpoint::Supported() { return kCheckpointSupported; }

struct Checkpoint::State {
  // One suspended (or finished) fiber: its saved context plus the live slice of its stack.
  // `stack_lo` points into the fiber's own mapping — restore memcpy's the bytes back to the
  // very addresses they came from, so every frame-internal pointer stays valid.
  struct FiberImage {
    bool present = false;
    bool started = false;
    bool finished = false;
    void* context = nullptr;
    char* stack_lo = nullptr;
    std::vector<char> bytes;
  };

  // A thread's run state plus its fiber. `entry` is saved only for threads not yet started at
  // snapshot time: a started thread's entry is being invoked in place on its (saved) fiber
  // stack, so restore must leave the std::function object untouched.
  struct TcbImage {
    TcbRunState run;
    bool has_entry = false;
    std::function<void()> entry;
    FiberImage fiber;
  };

  struct ObjectRecord {
    Checkpointable* ptr = nullptr;
    void* storage = nullptr;  // recorded at snapshot: CheckpointStorage() on a dead shell is UB
    size_t size = 0;
    CheckpointedObjectState state;
  };

  explicit State(const SchedulerRunState& run) : scheduler(run) {}

  static void SaveFiber(const Fiber& fiber, FiberImage* image);
  static void RestoreFiber(Fiber& fiber, const FiberImage& image);

  SchedulerRunState scheduler;
  std::vector<ThreadId> tied_scratch;

  // Threads and fibers.
  std::vector<TcbImage> tcbs;
  FiberImage exec;
  std::vector<ThreadId> pinned;  // tids this checkpoint pinned (unpinned in the destructor)

  // Tracer rollback point.
  size_t event_count = 0;
  size_t symbol_count = 0;

  // Runtime::Current() at snapshot time. The run loop sets the thread-local on entry and
  // clears it on return; a restore rewinds stacks back *inside* that call, so the pointer must
  // be rewound with them — otherwise resumed fibers throw from every thisthread:: wrapper.
  Runtime* current_runtime = nullptr;

  // Checkpointables.
  std::vector<Checkpointable*> registry;
  std::vector<ObjectRecord> objects;
};

void Checkpoint::State::SaveFiber(const Fiber& fiber, FiberImage* image) {
  image->present = true;
  image->started = fiber.started_;
  image->finished = fiber.finished_;
#if !PCR_FIBER_USE_UCONTEXT
  image->context = fiber.context_;
  if (!fiber.finished_) {
    // [saved SP - red zone, stack top): everything at or above the saved context is live frames
    // (for an unstarted fiber, the record pcr_make_context planted at the top of the stack).
    char* base = static_cast<char*>(fiber.stack_.base());
    char* top = base + fiber.stack_.size();
    char* lo = static_cast<char*>(fiber.context_) - kRedZoneBytes;
    if (lo < base) {
      lo = base;
    }
    image->stack_lo = lo;
    image->bytes.assign(lo, top);
  }
#else
  (void)fiber;
#endif
}

void Checkpoint::State::RestoreFiber(Fiber& fiber, const FiberImage& image) {
  fiber.started_ = image.started;
  fiber.finished_ = image.finished;
#if !PCR_FIBER_USE_UCONTEXT
  fiber.context_ = image.context;
  if (!image.bytes.empty()) {
    std::memcpy(image.stack_lo, image.bytes.data(), image.bytes.size());
  }
#endif
  // resumer_ needs no restore: it is reassigned from the transfer record on the next Resume.
}

Checkpoint::Checkpoint(Scheduler& scheduler, trace::Tracer& tracer, Fiber* exec_fiber)
    : scheduler_(scheduler), tracer_(tracer), exec_fiber_(exec_fiber) {
  if (!Supported()) {
    throw UsageError("pcr: Checkpoint is unsupported in this build (ucontext or sanitizers); "
                     "use from-zero replay");
  }
  RequireNoExceptionInFlight("Checkpoint");
  state_ = std::make_unique<State>(static_cast<const SchedulerRunState&>(scheduler_));
  State& s = *state_;

  s.tied_scratch = scheduler_.tied_scratch_;

  s.tcbs.reserve(scheduler_.tcbs_.size());
  for (const auto& owned : scheduler_.tcbs_) {
    const Tcb& t = *owned;
    State::TcbImage image;
    image.run = t;
    if (!t.started) {
      image.has_entry = true;
      image.entry = t.entry;
    }
    if (t.fiber) {
      scheduler_.PinFiber(t.id);
      s.pinned.push_back(t.id);
      State::SaveFiber(*t.fiber, &image.fiber);
      bytes_ += image.fiber.bytes.size();
    }
    s.tcbs.push_back(std::move(image));
  }

  if (exec_fiber_ != nullptr) {
    State::SaveFiber(*exec_fiber_, &s.exec);
    bytes_ += s.exec.bytes.size();
  }

  s.event_count = tracer_.size();
  s.symbol_count = tracer_.symbols().size();
  s.current_runtime = Runtime::Current();

  s.registry = scheduler_.checkpointables_;
  s.objects.reserve(s.registry.size());
  for (Checkpointable* object : s.registry) {
    State::ObjectRecord record;
    record.ptr = object;
    record.storage = object->CheckpointStorage();
    record.size = object->CheckpointStorageBytes();
    const char* raw = static_cast<const char*>(record.storage);
    record.state.bytes.assign(raw, raw + record.size);
    object->CheckpointSave(&record.state);
    bytes_ += record.size + record.state.extra.size();
    s.objects.push_back(std::move(record));
  }

  g_live_checkpoints.push_back(this);
}

Checkpoint::~Checkpoint() {
  RequireNewest(this, "~Checkpoint");
  g_live_checkpoints.pop_back();
  for (ThreadId tid : state_->pinned) {
    scheduler_.UnpinFiber(tid);
  }
}

void Checkpoint::Restore() {
  RequireNewest(this, "Restore");
  RequireNoExceptionInFlight("Restore");
  State& s = *state_;

  // 1. Tear down every checkpointable currently alive. Objects also present in the snapshot
  // are re-built in step 5; objects created after the snapshot lose their heap here and their
  // storage with the stack restore (their registry entries vanish with the registry copy).
  // Must precede the stack memcpy: teardown runs real destructors on *current* heap state.
  for (Checkpointable* object : scheduler_.checkpointables_) {
    object->CheckpointTeardown();
  }

  // 2. Fibers and stacks.
  for (size_t i = 0; i < s.tcbs.size(); ++i) {
    Tcb& t = *scheduler_.tcbs_[i];
    const State::FiberImage& image = s.tcbs[i].fiber;
    if (!image.present) {
      // No fiber existed at snapshot time; destroy any created since (its tid-pin, if an outer
      // checkpoint holds one, refers to the *original* fiber already parked in limbo).
      t.fiber.reset();
      continue;
    }
    if (!t.fiber) {
      if (!t.limbo) {
        std::abort();  // pinned fiber vanished: RetireFiber bypassed the limbo
      }
      t.fiber = std::move(t.limbo);
    }
    State::RestoreFiber(*t.fiber, image);
  }
  // Threads forked after the snapshot: their tids are dense at the end; drop them wholesale.
  scheduler_.tcbs_.resize(s.tcbs.size());
  if (exec_fiber_ != nullptr) {
    State::RestoreFiber(*exec_fiber_, s.exec);
  }

  // 3. Scheduler and thread run state (now that stacks hold snapshot-time frames again).
  static_cast<SchedulerRunState&>(scheduler_) = s.scheduler;
  // assign() within the capacity the constructor reserved: a reallocation here would move the
  // array out from under any suspended SelectReady frame holding .data().
  scheduler_.tied_scratch_.assign(s.tied_scratch.begin(), s.tied_scratch.end());
  for (size_t i = 0; i < s.tcbs.size(); ++i) {
    Tcb& t = *scheduler_.tcbs_[i];
    const State::TcbImage& image = s.tcbs[i];
    static_cast<TcbRunState&>(t) = image.run;
    if (image.has_entry) {
      t.entry = image.entry;
    }
  }

  // 4. Tracer: roll the event buffer and symbol table back to the snapshot point. Events only
  // ever append, so a prefix truncation is exact; symbol ids are dense and assigned in order.
  tracer_.TruncateTo(s.event_count);
  tracer_.symbols().TruncateTo(s.symbol_count);
  Runtime::SetCurrent(s.current_runtime);

  // 5. Checkpointables: restore the registry, then rebuild each saved object in place. The
  // stack restore in step 2 already put the byte image back for stack-resident objects; the
  // explicit memcpy makes this independent of where the object lives and revives dead shells'
  // vtables before the virtual CheckpointRestore call.
  scheduler_.checkpointables_ = s.registry;
  for (const State::ObjectRecord& record : s.objects) {
    std::memcpy(record.storage, record.state.bytes.data(), record.size);
    record.ptr->CheckpointRestore(record.state);
  }
}

}  // namespace pcr
