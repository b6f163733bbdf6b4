// The PCR scheduler: strict-priority, preemptive, quantum-ticked, on virtual time.
//
// Model (Section 2 of the paper):
//   * 7 priority levels; the scheduler always runs the highest-priority ready threads, with
//     round-robin among equals rotated at each timeslice tick.
//   * A higher-priority thread becoming runnable preempts a running lower-priority thread, even
//     one holding monitor locks.
//   * The quantum (default 50 ms) is also the condition-variable timeout granularity: timeouts
//     and sleeps fire only at quantum-grid ticks, which is what makes the Section 6.3
//     quantum-clocking experiment reproducible.
//   * YieldButNotToMe deprioritizes its caller until the next tick (Section 5.2); directed
//     yields boost the donee until the next tick (Section 6.2 / the SystemDaemon).
//
// Execution model: simulated threads are fibers. Real C++ code takes zero virtual time; virtual
// time passes only inside Compute()/cost charges. A charge suspends to the scheduler loop, which
// advances the clock to the next interesting instant (compute completion, tick, or external
// interrupt), so preemption points are exact without interrupting host code. A charge that no
// other thread can observe — one processor, strict priority, no ready thread that would preempt
// the caller, ending before the next tick, interrupt and run deadline — advances the clock in
// place instead, with the same state changes and no context switch.

#ifndef SRC_PCR_SCHEDULER_H_
#define SRC_PCR_SCHEDULER_H_

#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/pcr/config.h"
#include "src/pcr/errors.h"
#include "src/pcr/fault_point.h"
#include "src/pcr/fiber.h"
#include "src/pcr/ids.h"
#include "src/pcr/perturber.h"
#include "src/trace/metrics.h"
#include "src/trace/tracer.h"

namespace pcr {

class Checkpoint;
class Checkpointable;
class InterruptSource;
class MonitorLock;

enum class ThreadState : uint8_t { kReady, kRunning, kBlocked, kDone };

enum class BlockReason : uint8_t {
  kNone,
  kMonitor,     // waiting to enter a monitor
  kCondition,   // WAITing on a condition variable
  kJoin,        // JOINing another thread
  kSleep,       // timed sleep
  kFork,        // waiting for fork resources (Section 5.4 "wait" mode)
  kInterrupt,   // awaiting an external event
};

// Why TryFork could not produce a thread.
enum class ForkError : uint8_t {
  kNone,
  kThreadLimit,     // Config::max_threads live threads
  kStackExhausted,  // fiber-stack pool at capacity pressure or the kernel refused the mapping
  kInjected,        // a FaultInjector fired FaultSite::kFork
};
std::string_view ForkErrorName(ForkError error);

// What TryFork does when thread creation fails. The paper found FORK failure "treated as a
// fatal error" because almost no call site handles it (Section 5.4); these policies make
// handling it expressible per call site.
enum class ForkOnFailure : uint8_t {
  kDefault,       // follow Config::fork_failure (block-and-wait or throw ForkFailed)
  kReturnError,   // return a ForkResult carrying the error
  kRetryBackoff,  // re-attempt after a doubling virtual-time backoff, then return the error
  kAbort,         // abort the process with a diagnostic (the paper's observed behavior)
};

struct ForkResult {
  ThreadId tid = kNoThread;
  ForkError error = ForkError::kNone;
  int retries = 0;  // backoff re-attempts spent (kRetryBackoff only)
  bool ok() const { return error == ForkError::kNone; }
};

struct ForkOptions {
  std::string name;
  int priority = kDefaultPriority;
  size_t stack_bytes = 0;  // 0: use Config::stack_bytes
  ForkOnFailure on_failure = ForkOnFailure::kDefault;
  int max_retries = 3;      // kRetryBackoff: re-attempts after the first failure
  Usec retry_backoff = 0;   // kRetryBackoff: initial wait; 0 = one quantum; doubles per retry
};

// An entry on some wait queue. Entries are validated lazily against the thread's wait epoch so
// that timer wakeups and notifies never race over queue membership.
struct WaitEntry {
  ThreadId tid = kNoThread;
  uint64_t epoch = 0;
};

// The FIFO behind every wait queue: a vector and the index of its first unpopped entry. No heap
// block until the first push, and a push into a full vector at least half popped slides the
// live entries down instead of growing, so a queue that never drains stays bounded.
class WaitQueue {
 public:
  using value_type = WaitEntry;  // ckpt::ReadPodRange
  bool empty() const { return head_ == entries_.size(); }
  size_t size() const { return entries_.size() - head_; }
  size_t capacity() const { return entries_.capacity(); }
  const WaitEntry* begin() const { return entries_.data() + head_; }
  const WaitEntry* end() const { return entries_.data() + entries_.size(); }
  const WaitEntry& front() const { return entries_[head_]; }
  void push_back(WaitEntry entry) {
    if (entries_.size() == entries_.capacity() && 2 * head_ >= entries_.size()) {
      entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    entries_.push_back(entry);
  }
  void pop_front() {
    if (++head_ == entries_.size()) {
      entries_.clear();
      head_ = 0;
    }
  }

 private:
  std::vector<WaitEntry> entries_;
  size_t head_ = 0;
};

// The part of a thread control block that a Checkpoint rewinds, declared once: a Tcb field is
// checkpointed if and only if it lives here (save and restore are one assignment each). The
// one special case is Tcb::entry, restored only for threads that had not started.
struct TcbRunState {
  int priority = kDefaultPriority;
  ThreadState state = ThreadState::kReady;
  BlockReason block_reason = BlockReason::kNone;

  Usec remaining = 0;              // pending virtual compute while ready/running
  uint64_t wait_epoch = 0;         // bumped on every wakeup; validates WaitEntry/timers
  bool timer_fired = false;        // last wakeup came from a timeout
  // Object blocked on, for diagnostics and the deadlock walk; for BlockReason::kMonitor it is
  // always the MonitorLock (see Scheduler::BlockedOnOwner).
  const void* wait_object = nullptr;
  ThreadId notified_by = kNoThread;   // who last notified us (spurious-conflict attribution)

  ThreadId joiner = kNoThread;
  bool detached = false;
  bool joined = false;
  bool finished = false;
  bool started = false;
  std::exception_ptr uncaught;     // exception that escaped the body; rethrown at Join

  bool penalized = false;          // YieldButNotToMe: skip until next tick if others are ready
  bool boosted = false;            // directed-yield donee until next tick
  int inherited_priority = 0;      // donated by blocked higher-priority waiters (optional)
  int processor = -1;              // processor index while running

  Usec cpu_time = 0;
  Usec ready_since = -1;  // when the thread last became ready; -1 while running/blocked/done.
                          // The watchdog's starvation scan reads this: ready_since frozen for
                          // many quanta = runnable but never dispatched (stable inversion).

  // Monitors this thread owns, most recently acquired first, linked through
  // MonitorLock::next_held_. The lock's owner_ is the one record of ownership; this list only
  // lets a dying thread find (and poison) what it abandoned without a global table.
  MonitorLock* held_monitors = nullptr;
};

// Thread control block. Owned by the scheduler; stable address for a thread's lifetime. The
// fields below never change after fork (or, for entry and fiber, are checkpointed specially).
struct Tcb : TcbRunState {
  ThreadId id = kNoThread;
  std::string name;
  uint32_t name_sym = 0;  // `name` interned in the tracer's SymbolTable (0 when not tracing)

  std::function<void()> entry;     // user body; consumed at first dispatch
  std::unique_ptr<Fiber> fiber;    // created lazily at first dispatch
  size_t stack_bytes = 0;          // 0: Config::stack_bytes

  ThreadId parent = kNoThread;
  Usec forked_at = 0;
};

// Why a Run* call returned.
enum class RunStatus {
  kDeadline,    // reached the requested virtual-time deadline
  kQuiescent,   // no runnable threads, no timers, no pending interrupts
};

struct QuiescentInfo {
  bool all_threads_done = true;
  std::vector<ThreadId> blocked_threads;  // threads stuck with no wakeup source (lost notify?)
};

// The part of a Scheduler that a Checkpoint rewinds, declared once: a Scheduler field is
// checkpointed if and only if it lives here (save and restore are one assignment each). The
// one special case is Scheduler::tied_scratch_, refilled in place on restore (see
// checkpoint.cc). A private base of Scheduler, so its members read as the scheduler's own.
struct SchedulerRunState {
  struct TimerEntry {
    Usec deadline;
    ThreadId tid;
    uint64_t epoch;
  };

  struct PendingInterrupt {
    Usec time;
    InterruptSource* source;
    uint64_t payload;
    bool operator>(const PendingInterrupt& other) const { return time > other.time; }
  };

  explicit SchedulerRunState(uint64_t seed) : rng_(seed) {}

  std::mt19937_64 rng_;
  bool rng_seed_logged_ = false;

  Usec now_ = 0;
  Usec next_tick_due_ = 0;  // first unprocessed quantum tick; 0 = initialize on first run
  ThreadId current_tid_ = kNoThread;
  ObjectId next_object_id_ = 0;
  bool shutting_down_ = false;
  bool in_run_loop_ = false;
  // The active RunLoop's deadline. Bounds the charges Compute makes in place, so it rewinds
  // together with the run-loop frame a checkpoint restores into.
  Usec run_deadline_ = 0;

  std::deque<ThreadId> ready_[kNumPriorityLevels];
  uint32_t ready_mask_ = 0;   // bit p set iff ready_[p] is non-empty
  int boosted_count_ = 0;     // threads with the boosted flag set
  int penalized_count_ = 0;   // threads with the penalized flag set
  int inherited_count_ = 0;   // threads with inherited_priority > 0
  static constexpr int kBestReadyStale = -2;  // until BestReadyPriority rescans
  int best_ready_ = kBestReadyStale;  // BestReadyPriority's answer while a modifier is live
  std::vector<ThreadId> running_;       // per processor; kNoThread = idle
  std::vector<ThreadId> last_running_;  // per processor; for switch-event dedup

  // Timer wheel: timer_wheel_[i] holds entries due at tick (wheel_base_tick_ + i) on the
  // quantum grid. timer_count_ counts live (possibly stale) entries across all buckets.
  std::deque<std::vector<TimerEntry>> timer_wheel_;
  Usec wheel_base_tick_ = 0;
  size_t wheel_scan_hint_ = 0;  // buckets below this index are known empty
  size_t timer_count_ = 0;

  std::priority_queue<PendingInterrupt, std::vector<PendingInterrupt>,
                      std::greater<PendingInterrupt>>
      interrupts_;

  WaitQueue fork_waiters_;  // threads blocked in Fork waiting for resources
  int live_threads_ = 0;
  int64_t total_forks_ = 0;
  int64_t uncaught_exits_ = 0;
  int64_t zero_progress_ops_ = 0;       // livelock guard: ops executed since time last advanced
  size_t stack_bytes_reserved_ = 0;
  size_t peak_stack_bytes_reserved_ = 0;
};

class Scheduler : private SchedulerRunState {
 public:
  Scheduler(const Config& config, trace::Tracer* tracer);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  const Config& config() const { return config_; }
  Usec now() const { return now_; }
  trace::Tracer* tracer() { return tracer_; }
  bool shutting_down() const { return shutting_down_; }

  // ---- Runtime metrics (src/trace/metrics.h) ----
  //
  // The registry lives for the scheduler's lifetime; hot paths hold cached Counter/Histogram
  // pointers registered once at construction. MetricCounter/MetricHistogram return nullptr when
  // metrics are disabled (Config::metrics = false), so call sites feed the null-tolerant
  // trace::MetricAdd / trace::MetricRecord and pay one predicted branch.

  trace::MetricsRegistry& metrics() { return metrics_; }
  const trace::MetricsRegistry& metrics() const { return metrics_; }
  trace::Counter* MetricCounter(std::string_view name);
  trace::Log2Histogram* MetricHistogram(std::string_view name);

  // ---- Seed-logged randomness ----
  //
  // All in-run randomness must flow through these so that a run is a pure function of
  // (config, workload script): the seed is emitted into the trace on the first draw, and repro
  // strings (src/explore/) capture it. The raw engine is deliberately not exposed.

  uint64_t RandomU64();
  double RandomUnit();            // uniform in [0, 1)
  size_t RandomIndex(size_t n);   // uniform in [0, n); n must be > 0
  uint64_t seed() const { return config_.seed; }

  // ---- Schedule exploration (src/explore/) ----

  // Installs (or clears, with nullptr) the perturbation hook. Not owned. Install before the
  // first Run* call; decisions are consulted at ready-queue tie-breaks and at the preemption
  // points declared in perturber.h.
  void set_perturber(SchedulePerturber* perturber) { perturber_ = perturber; }
  SchedulePerturber* perturber() const { return perturber_; }

  // Consults the perturber at `point`; if it answers yes, the current thread is requeued at the
  // back of its priority level and the processor rescheduled (a forced end-of-timeslice). No-op
  // from host context, during shutdown, or with no perturber installed.
  void MaybeForcePreempt(PreemptPoint point);

  // ---- Fault injection (src/fault/) ----

  // Installs (or clears, with nullptr) the fault-injection hook. Not owned. Like the
  // perturber, install before the first Run* call.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Consults the injector at `site`. Nonzero means a fault fired (the value is its magnitude);
  // the firing is emitted as kFaultInjected and counted in fault.* metrics. Always 0 with no
  // injector installed or during shutdown.
  uint64_t ConsultFault(FaultSite site);

  // ---- Thread API (callable from fibers; Fork/Detach also from the host) ----

  ThreadId Fork(std::function<void()> body, ForkOptions options = {});
  // Fork with an error path: reports failure through the ForkResult instead of throwing,
  // honoring options.on_failure. Fork is a throwing wrapper over this.
  ForkResult TryFork(std::function<void()> body, ForkOptions options = {});
  void Join(ThreadId tid);
  void Detach(ThreadId tid);
  // Charges virtual time to the current thread: explicit work and every cost-model charge
  // (monitor entry, fork, yield, ...). A preemption point: suspends to the run loop unless no
  // other thread can observe the charge (see ChargeInPlace), in which case the clock advances
  // without a context switch. No-op from the host context, during shutdown, or when
  // duration <= 0.
  void Compute(Usec duration);
  void Yield();
  void YieldButNotToMe();
  void DirectedYield(ThreadId target);
  void Sleep(Usec duration);  // wakes at the first tick at/after now + duration
  void SetPriority(int priority);
  int priority() const;
  ThreadId current() const { return current_tid_; }
  const Tcb* FindThread(ThreadId tid) const;

  // ---- Run loop (host context only) ----

  RunStatus RunFor(Usec duration);
  RunStatus RunUntilQuiescent(Usec max_duration);
  QuiescentInfo quiescent_info() const;

  // Unwinds every live fiber by making its next blocking/compute call throw ThreadKilled.
  // Idempotent; called by the Runtime destructor. Must run before any Monitor/Condition the
  // threads may still reference is destroyed.
  void Shutdown();

  // ---- Internal API for Monitor / Condition / InterruptSource ----

  // Blocks the current thread. If deadline >= 0 a timer entry is armed that fires at the first
  // tick at/after `deadline`. Returns true if the wakeup came from that timer.
  bool BlockCurrent(BlockReason reason, const void* object, Usec deadline);

  // Absolute tick-grid deadline for a relative timeout: timeouts are counted in whole quanta
  // from the start of the current timeslice window ("the CV timeout granularity ... [is] 50
  // milliseconds", Section 2), so a 100 ms timeout armed mid-window still spans exactly two
  // ticks rather than drifting to three.
  Usec GridDeadline(Usec relative_timeout) const;

  // Makes `tid` runnable. `from_timer` marks timeout wakeups; `front` requeues at the head of
  // its priority level (used for preemption victims).
  void WakeThread(ThreadId tid, bool from_timer, bool front = false);

  // Pops wait-queue entries until a valid (still-blocked, epoch-matching) one is found and
  // returns its tid, or kNoThread. Does not wake it.
  ThreadId PopValidWaiter(WaitQueue& queue);

  // Appends the current thread to `queue` with its current epoch.
  void EnqueueCurrentWaiter(WaitQueue& queue);

  void Emit(trace::EventType type, ObjectId object = 0, uint64_t arg = 0,
            uint32_t object_sym = 0);

  // Flight recorder: when the tracer runs with a ring limit (Config::trace_ring_events), dumps
  // the retained event tail to stderr, prefixed with `reason`. No-op otherwise; failure paths
  // call this unconditionally.
  void FlightDump(const char* reason);

  // Interns a name in the tracer's symbol table so events can reference it by id. Returns 0
  // (anonymous) when tracing is off; callers cache the result.
  uint32_t InternName(std::string_view name);

  ObjectId NextObjectId() { return ++next_object_id_; }

  // Hot everywhere in the dispatch path (a few hundred lookups per simulated run), so the happy
  // path is inline and only the invalid-tid throw stays out of line.
  Tcb& GetTcb(ThreadId tid) {
    if (tid == kNoThread || tid > tcbs_.size()) {
      ThrowUnknownThread(tid);
    }
    return *tcbs_[tid - 1];
  }
  Tcb* CurrentTcb();

  // The thread `t` waits on: the owner of the monitor it is blocked entering, or kNoThread
  // when it is not blocked on a monitor (or the monitor is free). One step of every
  // blocked->owner walk: WouldDeadlock, DonatePriority and the watchdog's wait-for graph.
  ThreadId BlockedOnOwner(const Tcb& t) const;

  // Total threads ever created (valid tids are 1..thread_count()); watchdog scan range.
  int thread_count() const { return static_cast<int>(tcbs_.size()); }

  // With Config::priority_inheritance: donates the current thread's effective priority down the
  // owner chain starting at `owner` (called when blocking on a monitor). The inheritance is
  // cleared when a holder releases any monitor — an approximation: the donation is not
  // recomputed from the waiters of the monitors it still holds (Tcb::held_monitors), which is
  // exact for the single-lock critical sections the paradigms use.
  void DonatePriority(ThreadId owner);
  void ClearInheritedPriority(ThreadId tid);

  // True if the current thread blocking on a monitor owned by `owner` would close a wait cycle.
  bool WouldDeadlock(ThreadId owner) const;

  // Scheduling of external interrupts (used by InterruptSource).
  void ScheduleInterrupt(Usec time, InterruptSource* source, uint64_t payload);

  // A uniformly random ready thread, or kNoThread (used by the SystemDaemon).
  ThreadId RandomReadyThread();

  int live_threads() const { return live_threads_; }
  int64_t total_forks() const { return total_forks_; }
  int64_t uncaught_exits() const { return uncaught_exits_; }
  // Stack address space currently reserved / the high-water mark (Section 5.1's memory cost).
  size_t stack_bytes_reserved() const { return stack_bytes_reserved_; }
  size_t peak_stack_bytes_reserved() const { return peak_stack_bytes_reserved_; }

  // Fiber-substrate counters, kept independent of the metrics registry so benches can read
  // them with Config::metrics off. fiber_switches counts real context switches: two per
  // Resume round trip, none for a charge made in place; stack_acquires/stack_pool_hits count
  // fiber-stack requests and how many the stack pool served without a fresh mmap. They count
  // host work, which a Checkpoint restore does not undo, so they are not run state: a restore
  // leaves them (and their registry mirrors fiber.switches and stack.*) where they are.
  int64_t fiber_switches() const { return fiber_switches_; }
  int64_t stack_acquires() const { return stack_acquires_; }
  int64_t stack_pool_hits() const { return stack_pool_hits_; }

  // The pool FORK draws fiber stacks from: Config::stack_pool when set (shared, e.g. one per
  // explorer worker reused across schedules), otherwise a private per-scheduler pool.
  StackPool& stack_pool() { return *stack_pool_; }

  // ---- Checkpoint support (src/pcr/checkpoint.h) ----

  // Installs (or clears) the checkpoint pause hook. While set, CheckpointPause() suspends the
  // run back to the exec-fiber orchestrator at perturber decision boundaries; the hook runs on
  // the scheduler's execution context (either the host/exec frame, for PickNext pauses, or the
  // RunFiber frame after a sim fiber parks itself, for ForcePreempt pauses).
  void set_checkpoint_hook(std::function<void()> hook) { checkpoint_hook_ = std::move(hook); }

  // Pauses the run at the current decision point. From a simulated thread this parks the
  // fiber and defers the hook to the RunFiber frame; from the scheduler loop itself (no
  // current fiber) the hook runs inline. No-op when no hook is installed.
  void CheckpointPause();

  // Arms/checks the abandon-run flag: the next time a checkpoint pause would resume forward
  // execution, it throws CheckpointAbort through the exec fiber instead, unwinding a run whose
  // remaining suffixes were all pruned or copied.
  void RequestCheckpointAbort() { checkpoint_abort_ = true; }
  void ThrowIfCheckpointAborted();

  // Checkpointable registry: monitors/CVs/weak cells register at construction so a Checkpoint
  // can capture and restore their heap-owning state (see checkpoint.h for the protocol).
  void RegisterCheckpointable(Checkpointable* object);
  void UnregisterCheckpointable(Checkpointable* object);

  // Fiber pinning: while a fiber is pinned by >= 1 live Checkpoint, retiring it parks the
  // Fiber (and its stack mapping) in limbo instead of destroying it, so a later Restore can
  // reinstall it and memcpy the saved stack image back into the same addresses.
  void PinFiber(ThreadId tid) { ++fiber_pins_[tid]; }
  void UnpinFiber(ThreadId tid);
  bool FiberPinned(ThreadId tid) const {
    return !fiber_pins_.empty() && fiber_pins_.count(tid) != 0;
  }

 private:
  friend class Checkpoint;
  [[noreturn]] void ThrowUnknownThread(ThreadId tid) const;

  // Dispatch + execution until every processor is idle or mid-compute.
  void Settle();
  void AssignProcessors();
  void PreemptIfNeeded();
  // Completes the current thread's pending charge without leaving its fiber when no other
  // thread can observe it; returns false (nothing changed) when the run loop must decide.
  bool ChargeInPlace(Tcb& me);
  void RunFiber(Tcb& tcb);
  void FiberBody(Tcb& tcb);
  void ExitCurrent();
  void ReapIfPossible(Tcb& tcb);
  // Destroys tcb.fiber, or parks it in limbo when pinned by a checkpoint. Call sites keep
  // their own stack_bytes_reserved_ accounting (this only decides destroy-vs-limbo).
  void RetireFiber(Tcb& tcb);

  // Selection: pops the next thread to dispatch, or returns kNoThread when nothing is ready.
  ThreadId SelectReady();
  ThreadId SelectReadySlow();
  int EffectivePriority(const Tcb& tcb) const;
  // The highest effective priority among ready threads (-1: none), all that the peeks read
  // (ChargeInPlace, PreemptIfNeeded, HandleTick). O(1): the top ready level when no modifier is
  // live, otherwise a scan kept in best_ready_ until the ready set or a modifier changes.
  int BestReadyPriority();
  int ScanBestReady() const;
  bool BoostedThreadReady() const;
  // Calls f(tcb) for every ready thread, lowest priority level first.
  template <typename F>
  void ForEachReady(F f) const {
    for (uint32_t mask = ready_mask_; mask != 0; mask &= mask - 1) {
      for (ThreadId tid : ready_[__builtin_ctz(mask)]) {
        f(*tcbs_[tid - 1]);
      }
    }
  }

  // Ready-queue pushes and pops and the modifier flags go through these so the level bitmask and
  // modifier counters stay exact and best_ready_ goes stale. The counters let SelectReady and
  // BestReadyPriority take their find-first-set fast paths (and HandleTick skip its clear sweep)
  // in the common case where no thread carries a scheduling modifier.
  void PushReady(Tcb& tcb, bool front = false);
  // Takes a running thread off its processor, unboosted, back onto its ready queue.
  void Requeue(Tcb& tcb, bool front = false);
  void SyncReadyMask(int priority) {
    best_ready_ = kBestReadyStale;
    if (ready_[priority].empty()) {
      ready_mask_ &= ~(1u << priority);
    }
  }
  void SetBoosted(Tcb& tcb, bool value);
  void SetPenalized(Tcb& tcb, bool value);
  void SetInheritedPriority(Tcb& tcb, int value);

  // Timer bucket wheel. Deadlines come from GridDeadline, so they land on the quantum grid;
  // each bucket holds the entries due at one tick and firing a tick is one bucket pop instead
  // of a heap walk. Entries are validated against the thread's wait epoch when fired or
  // scanned, exactly like the old priority-queue implementation.
  void ArmTimer(Usec deadline, ThreadId tid, uint64_t epoch);
  std::vector<TimerEntry> TakeBucket();
  void RecycleBucket(std::vector<TimerEntry> bucket);

  RunStatus RunLoop(Usec deadline, bool idle_to_deadline);
  Usec NextTickAfter(Usec t) const;     // strictly greater than t, on the quantum grid
  Usec TickAtOrAfter(Usec t) const;
  void HandleTick();
  void FireTimersUpTo(Usec t);
  Usec NextTimerDeadline();             // -1 when no (valid) timer is pending
  Usec NextInterruptTime() const;       // -1 when none
  void DeliverInterruptsUpTo(Usec t);
  void AdvanceTo(Usec t);
  void NoteProgress();
  void CheckLivelock();

  Config config_;
  trace::Tracer* tracer_;
  trace::MetricsRegistry metrics_;
  // Read by fiber_switches(), stack_acquires() and stack_pool_hits(); not run state.
  int64_t fiber_switches_ = 0;
  int64_t stack_acquires_ = 0;
  int64_t stack_pool_hits_ = 0;
  // Cached registry handles; all nullptr when metrics are off so the hot paths no-op.
  trace::Counter* m_dispatches_ = nullptr;
  trace::Counter* m_idle_parks_ = nullptr;
  trace::Counter* m_preempts_ = nullptr;
  trace::Counter* m_forced_preempts_ = nullptr;
  trace::Counter* m_ticks_ = nullptr;
  trace::Counter* m_timer_fires_ = nullptr;
  trace::Counter* m_forks_ = nullptr;
  trace::Counter* m_fiber_switches_ = nullptr;
  trace::Counter* m_stack_acquires_ = nullptr;
  trace::Counter* m_stack_pool_hits_ = nullptr;
  trace::Counter* m_stack_peak_live_ = nullptr;
  trace::Log2Histogram* m_ready_depth_ = nullptr;
  trace::Counter* m_faults_injected_ = nullptr;
  trace::Counter* m_fork_failures_ = nullptr;
  trace::Counter* m_monitors_poisoned_ = nullptr;
  SchedulePerturber* perturber_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  // The one tracing gate, fixed at construction (tracer present, tracing configured): every
  // record site, InternName and FlightDump test it instead of chasing the tracer pointer.
  bool trace_active_ = false;

  std::vector<std::unique_ptr<Tcb>> tcbs_;  // index = tid - 1
  std::vector<ThreadId> tied_scratch_;    // SelectReady tie-break candidates (reused)
  std::vector<ThreadId> random_scratch_;  // RandomReadyThread candidates (reused)
  std::vector<std::vector<TimerEntry>> timer_bucket_pool_;

  // Fibers release their stacks into this pool when destroyed; Shutdown() (which the
  // destructor runs before any member is torn down) destroys every fiber, so member order
  // relative to tcbs_ does not matter.
  StackPool own_stack_pool_;
  StackPool* stack_pool_ = nullptr;  // == config_.stack_pool or &own_stack_pool_

  // Checkpoint plumbing. The hook and flags are deliberately NOT part of checkpointed state:
  // pause_pending is always false at both snapshot and restore time (snapshots are taken from
  // the hook, after the flag is cleared), and the hook/abort flag belong to the orchestrator
  // driving the current group, not to the run being rewound.
  std::function<void()> checkpoint_hook_;
  bool checkpoint_pause_pending_ = false;
  bool checkpoint_abort_ = false;
  std::vector<Checkpointable*> checkpointables_;
  // Fibers retired while pinned, keyed by tid (tids are never reused, and a tcb only ever owns
  // one Fiber object over its lifetime, so reinstalling from limbo is unambiguous).
  std::unordered_map<ThreadId, std::unique_ptr<Fiber>> fiber_limbo_;
  std::unordered_map<ThreadId, int> fiber_pins_;
};

}  // namespace pcr

#endif  // SRC_PCR_SCHEDULER_H_
