#include "src/pcr/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <exception>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "src/pcr/checkpoint.h"
#include "src/pcr/interrupt.h"
#include "src/pcr/monitor.h"

namespace pcr {

namespace {

// Livelock guard: this many fiber dispatches without virtual time advancing means some thread is
// spinning in zero-cost operations (e.g. Yield with a zero cost model).
constexpr int64_t kZeroProgressLimit = 10'000'000;

int ClampPriority(int priority) {
  return std::clamp(priority, kMinPriority, kMaxPriority);
}

// Highest set bit index of a non-zero mask (ready levels fit in an int).
inline int TopSetBit(uint32_t mask) {
  return 31 - __builtin_clz(mask);
}

// Renders a stored exception for diagnostics without letting anything escape.
std::string DescribeException(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "(non-std exception)";
  }
}

}  // namespace

std::string_view ForkErrorName(ForkError error) {
  switch (error) {
    case ForkError::kNone:
      return "ok";
    case ForkError::kThreadLimit:
      return "thread-limit";
    case ForkError::kStackExhausted:
      return "stack-exhausted";
    case ForkError::kInjected:
      return "injected";
  }
  return "unknown";
}

Scheduler::Scheduler(const Config& config, trace::Tracer* tracer)
    : SchedulerRunState(config.seed), config_(config), tracer_(tracer) {
  config_.processors = std::max(1, config_.processors);
  config_.quantum = std::max<Usec>(1, config_.quantum);
  running_.assign(static_cast<size_t>(config_.processors), kNoThread);
  last_running_.assign(static_cast<size_t>(config_.processors), kNoThread);
  stack_pool_ = config_.stack_pool != nullptr ? config_.stack_pool : &own_stack_pool_;
  trace_active_ = tracer_ != nullptr && config_.trace_events;
  // Pre-size the tie-break scratch to its maximum: a checkpoint can pause execution inside
  // SelectReady while a pointer to tied_scratch_.data() lives in a suspended frame, so the
  // vector must never reallocate (restore refills it in place, within this capacity).
  tied_scratch_.reserve(static_cast<size_t>(std::max(1, config_.max_threads)));
  if (config_.metrics) {
    // Register once here; the hot paths only ever touch the cached pointers.
    m_dispatches_ = metrics_.counter("sched.dispatches");
    m_idle_parks_ = metrics_.counter("sched.idle_parks");
    m_preempts_ = metrics_.counter("sched.preempts");
    m_forced_preempts_ = metrics_.counter("sched.forced_preempts");
    m_ticks_ = metrics_.counter("sched.ticks");
    m_timer_fires_ = metrics_.counter("sched.timer_fires");
    m_forks_ = metrics_.counter("sched.forks");
    m_fiber_switches_ = metrics_.counter("fiber.switches");
    m_stack_acquires_ = metrics_.counter("stack.acquires");
    m_stack_pool_hits_ = metrics_.counter("stack.pool_hits");
    m_stack_peak_live_ = metrics_.counter("stack.peak_live_bytes");
    m_ready_depth_ = metrics_.histogram("sched.ready_depth");
    m_faults_injected_ = metrics_.counter("fault.injected");
    m_fork_failures_ = metrics_.counter("fault.fork_failures");
    m_monitors_poisoned_ = metrics_.counter("fault.monitors_poisoned");
  }
}

trace::Counter* Scheduler::MetricCounter(std::string_view name) {
  if (config_.metrics) {
    return metrics_.counter(name);
  }
  return nullptr;
}

trace::Log2Histogram* Scheduler::MetricHistogram(std::string_view name) {
  if (config_.metrics) {
    return metrics_.histogram(name);
  }
  return nullptr;
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::ThrowUnknownThread(ThreadId tid) const {
  throw UsageError("pcr: unknown thread id " + std::to_string(tid));
}

Tcb* Scheduler::CurrentTcb() {
  return current_tid_ == kNoThread ? nullptr : &GetTcb(current_tid_);
}

const Tcb* Scheduler::FindThread(ThreadId tid) const {
  if (tid == kNoThread || tid > tcbs_.size()) {
    return nullptr;
  }
  return tcbs_[tid - 1].get();
}

void Scheduler::PushReady(Tcb& tcb, bool front) {
  tcb.ready_since = now_;
  best_ready_ = kBestReadyStale;
  auto& queue = ready_[tcb.priority];
  if (queue.empty()) {
    ready_mask_ |= 1u << tcb.priority;
  }
  if (front) {
    queue.push_front(tcb.id);
  } else {
    queue.push_back(tcb.id);
  }
}

void Scheduler::Requeue(Tcb& tcb, bool front) {
  tcb.state = ThreadState::kReady;
  SetBoosted(tcb, false);
  PushReady(tcb, front);
  running_[static_cast<size_t>(tcb.processor)] = kNoThread;
  tcb.processor = -1;
}

void Scheduler::SetBoosted(Tcb& tcb, bool value) {
  if (tcb.boosted != value) {
    tcb.boosted = value;
    boosted_count_ += value ? 1 : -1;
    best_ready_ = kBestReadyStale;
  }
}

void Scheduler::SetPenalized(Tcb& tcb, bool value) {
  if (tcb.penalized != value) {
    tcb.penalized = value;
    penalized_count_ += value ? 1 : -1;
    best_ready_ = kBestReadyStale;
  }
}

void Scheduler::SetInheritedPriority(Tcb& tcb, int value) {
  if ((tcb.inherited_priority > 0) != (value > 0)) {
    inherited_count_ += value > 0 ? 1 : -1;
  }
  if (tcb.inherited_priority != value) {
    tcb.inherited_priority = value;
    best_ready_ = kBestReadyStale;
  }
}

void Scheduler::Emit(trace::EventType type, ObjectId object, uint64_t arg,
                     uint32_t object_sym) {
  // shutting_down_ stays a separate condition: it is checkpoint-restored state (a restore can
  // rewind a finished run back to mid-flight), while trace_active_ is fixed at construction.
  if (!trace_active_ || shutting_down_) {
    return;
  }
  trace::Event e;
  e.time_us = now_;
  e.type = type;
  e.thread = current_tid_;
  e.object = object;
  e.arg = arg;
  e.object_sym = object_sym;
  if (Tcb* me = CurrentTcb()) {
    e.priority = static_cast<uint8_t>(me->priority);
    e.processor = static_cast<uint16_t>(me->processor >= 0 ? me->processor : 0);
    e.thread_sym = me->name_sym;
  }
  tracer_->Record(e);
}

void Scheduler::FlightDump(const char* reason) {
  if (!trace_active_ || tracer_->ring_limit() == 0 || tracer_->retained() == 0) {
    return;
  }
  std::cerr << "pcr: flight recorder (" << reason << ") at t=" << now_ << "us:\n";
  tracer_->Dump(std::cerr, 0, now_ + 1);
}

uint32_t Scheduler::InternName(std::string_view name) {
  if (!trace_active_ || name.empty()) {
    return 0;
  }
  return tracer_->symbols().Intern(name);
}

// ---------------------------------------------------------------------------
// Thread API
// ---------------------------------------------------------------------------

ThreadId Scheduler::Fork(std::function<void()> body, ForkOptions options) {
  ForkResult result = TryFork(std::move(body), std::move(options));
  if (!result.ok()) {
    throw ForkFailed("pcr: FORK failed (" + std::string(ForkErrorName(result.error)) +
                     "): " + std::to_string(live_threads_) + " live threads at limit " +
                     std::to_string(config_.max_threads));
  }
  return result.tid;
}

ForkResult Scheduler::TryFork(std::function<void()> body, ForkOptions options) {
  Tcb* me = CurrentTcb();
  ForkResult result;
  Usec backoff = options.retry_backoff > 0 ? options.retry_backoff : config_.quantum;
  for (;;) {
    // Failure causes, checked in a fixed order so a seeded fault plan fires deterministically:
    // injected failure first, then the real resource checks.
    ForkError error = ForkError::kNone;
    if (ConsultFault(FaultSite::kFork) != 0) {
      error = ForkError::kInjected;
    } else if (live_threads_ >= config_.max_threads) {
      error = ForkError::kThreadLimit;
    } else if (ConsultFault(FaultSite::kStackAcquire) != 0 ||
               !stack_pool_->HasCapacity(options.stack_bytes != 0 ? options.stack_bytes
                                                                  : config_.stack_bytes)) {
      error = ForkError::kStackExhausted;
    }
    if (error == ForkError::kNone) {
      break;
    }
    Emit(trace::EventType::kForkFailed, 0, static_cast<uint64_t>(error));
    trace::MetricAdd(m_fork_failures_);
    ForkOnFailure policy = options.on_failure;
    if (policy == ForkOnFailure::kDefault) {
      // Section 5.4: "our more recent implementations simply wait in the fork implementation
      // for more resources to become available" — the user-visible cost is an unexplained
      // delay. Waiting only makes sense for the thread-limit cause from fiber context; every
      // other combination reports the error (Fork turns it into a throw).
      if (config_.fork_failure == ForkFailureMode::kWait &&
          error == ForkError::kThreadLimit && me != nullptr && !shutting_down_) {
        EnqueueCurrentWaiter(fork_waiters_);
        BlockCurrent(BlockReason::kFork, nullptr, -1);
        continue;
      }
      result.error = error;
      return result;
    }
    if (policy == ForkOnFailure::kRetryBackoff) {
      if (me != nullptr && !shutting_down_ && result.retries < options.max_retries) {
        ++result.retries;
        Sleep(backoff);
        backoff *= 2;
        continue;
      }
      result.error = error;
      return result;
    }
    if (policy == ForkOnFailure::kAbort) {
      std::fprintf(stderr, "pcr: FORK failed (%s): %d live threads at limit %d\n",
                   std::string(ForkErrorName(error)).c_str(), live_threads_,
                   config_.max_threads);
      std::abort();
    }
    result.error = error;  // kReturnError
    return result;
  }

  auto tcb = std::make_unique<Tcb>();
  ThreadId id = static_cast<ThreadId>(tcbs_.size()) + 1;
  tcb->id = id;
  tcb->name = options.name.empty() ? "thread-" + std::to_string(id) : std::move(options.name);
  tcb->name_sym = InternName(tcb->name);
  tcb->priority = ClampPriority(options.priority);
  tcb->entry = std::move(body);
  tcb->stack_bytes = options.stack_bytes;
  tcb->parent = me != nullptr ? me->id : kNoThread;
  tcb->forked_at = now_;
  tcb->state = ThreadState::kReady;
  PushReady(*tcb);
  tcbs_.push_back(std::move(tcb));
  ++live_threads_;
  ++total_forks_;
  trace::MetricAdd(m_forks_);
  Emit(trace::EventType::kThreadFork, id, static_cast<uint64_t>(ClampPriority(options.priority)),
       GetTcb(id).name_sym);
  Compute(config_.costs.fork);  // preemption point: a higher-priority child starts promptly
  result.tid = id;
  return result;
}

void Scheduler::Join(ThreadId tid) {
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    throw UsageError("pcr: JOIN outside a pcr thread");
  }
  Tcb& target = GetTcb(tid);
  if (&target == me) {
    throw UsageError("pcr: JOIN on self");
  }
  if (target.detached) {
    throw UsageError("pcr: JOIN on detached thread " + target.name);
  }
  if (target.joined) {
    // "A thread may be JOINed at most once" (Section 2).
    throw UsageError("pcr: thread " + target.name + " already joined");
  }
  Compute(config_.costs.join);
  while (!target.finished) {
    if (target.joiner != kNoThread && target.joiner != me->id) {
      throw UsageError("pcr: two threads joining " + target.name);
    }
    target.joiner = me->id;
    BlockCurrent(BlockReason::kJoin, &target, -1);
  }
  target.joined = true;
  Emit(trace::EventType::kThreadJoin, tid, 0, target.name_sym);
  std::exception_ptr uncaught = target.uncaught;
  target.uncaught = nullptr;
  ReapIfPossible(target);
  if (uncaught) {
    std::rethrow_exception(uncaught);
  }
}

void Scheduler::Detach(ThreadId tid) {
  Tcb& target = GetTcb(tid);
  if (target.joined || target.joiner != kNoThread) {
    throw UsageError("pcr: DETACH on joined thread " + target.name);
  }
  target.detached = true;
  Emit(trace::EventType::kThreadDetach, tid, 0, target.name_sym);
  ReapIfPossible(target);
}

void Scheduler::Compute(Usec duration) {
  Tcb* me = CurrentTcb();
  if (me == nullptr || duration <= 0 || shutting_down_) {
    return;  // host context (world setup) and shutdown unwinding take no virtual time
  }
  // Injected thread death: the body throws at a scheduler-visible point, exercising the
  // uncaught-exception path (and monitor abandonment, if locks are held). Suppressed while an
  // exception is already propagating — a throw from a cleanup charge would terminate.
  if (fault_injector_ != nullptr && std::uncaught_exceptions() == 0 &&
      ConsultFault(FaultSite::kThreadDeath) != 0) {
    throw InjectedFault("pcr: injected thread death in " + me->name);
  }
  me->remaining += duration;
  if (ChargeInPlace(*me)) {
    return;
  }
  me->fiber->Suspend();
  if (shutting_down_ && std::uncaught_exceptions() == 0) {
    // Resumed by Shutdown: unwind this thread. Suppressed while another exception is already
    // propagating (a cleanup charge mid-unwind), which would otherwise terminate the process.
    throw ThreadKilled();
  }
}

void Scheduler::Yield() {
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    throw UsageError("pcr: YIELD outside a pcr thread");
  }
  if (shutting_down_) {
    throw ThreadKilled();
  }
  Emit(trace::EventType::kYield);
  Compute(config_.costs.yield);
  Requeue(*me);
  me->fiber->Suspend();
  if (shutting_down_) {
    throw ThreadKilled();
  }
}

void Scheduler::YieldButNotToMe() {
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    throw UsageError("pcr: YieldButNotToMe outside a pcr thread");
  }
  if (shutting_down_) {
    throw ThreadKilled();
  }
  Emit(trace::EventType::kYieldButNotToMe);
  Compute(config_.costs.yield);
  // "gives the processor to the highest priority ready thread other than its caller, if such a
  // thread exists" (Section 5.2); the penalty lasts until the end of the timeslice (Section 6.3).
  SetPenalized(*me, true);
  Requeue(*me);
  me->fiber->Suspend();
  if (shutting_down_) {
    throw ThreadKilled();
  }
}

void Scheduler::DirectedYield(ThreadId target) {
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    throw UsageError("pcr: DirectedYield outside a pcr thread");
  }
  if (shutting_down_) {
    throw ThreadKilled();
  }
  Emit(trace::EventType::kDirectedYield, target, 0, GetTcb(target).name_sym);
  Compute(config_.costs.yield);
  Tcb& donee = GetTcb(target);
  if (donee.state == ThreadState::kReady) {
    SetBoosted(donee, true);  // wins selection regardless of priority, until the next tick
  }
  Requeue(*me);
  me->fiber->Suspend();
  if (shutting_down_) {
    throw ThreadKilled();
  }
}

void Scheduler::Sleep(Usec duration) {
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    throw UsageError("pcr: Sleep outside a pcr thread");
  }
  Emit(trace::EventType::kSleep, 0, static_cast<uint64_t>(duration));
  // Tick granularity: the wakeup lands on the quantum grid, so "the smallest sleep interval is
  // the remainder of the scheduler quantum" (Section 6.3).
  BlockCurrent(BlockReason::kSleep, nullptr, GridDeadline(duration));
}

void Scheduler::SetPriority(int priority) {
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    throw UsageError("pcr: SetPriority outside a pcr thread");
  }
  me->priority = ClampPriority(priority);
  best_ready_ = kBestReadyStale;
  Emit(trace::EventType::kSetPriority, 0, static_cast<uint64_t>(me->priority));
  Compute(1);  // preemption point so a self-demotion takes effect immediately
}

int Scheduler::priority() const {
  if (current_tid_ == kNoThread) {
    return kDefaultPriority;
  }
  return tcbs_[current_tid_ - 1]->priority;
}

// ---------------------------------------------------------------------------
// Blocking and wakeup
// ---------------------------------------------------------------------------

bool Scheduler::BlockCurrent(BlockReason reason, const void* object, Usec deadline) {
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    throw UsageError("pcr: blocking call outside a pcr thread");
  }
  if (shutting_down_) {
    throw ThreadKilled();
  }
  me->state = ThreadState::kBlocked;
  me->block_reason = reason;
  me->wait_object = object;
  me->timer_fired = false;
  SetBoosted(*me, false);
  if (deadline >= 0) {
    // Injected timer skew: the timeout fires N quanta late. The paper's missing-notify bugs
    // stay hidden because a generous timeout limps the program along (Section 5.3); late
    // timers widen the window those bugs are visible in.
    if (uint64_t skew = ConsultFault(FaultSite::kTimerSkew); skew != 0) {
      deadline += static_cast<Usec>(skew) * config_.quantum;
    }
    ArmTimer(deadline, me->id, me->wait_epoch);
  }
  if (me->processor >= 0) {
    running_[static_cast<size_t>(me->processor)] = kNoThread;
    me->processor = -1;
  }
  me->fiber->Suspend();
  if (shutting_down_) {
    throw ThreadKilled();
  }
  return me->timer_fired;
}

void Scheduler::WakeThread(ThreadId tid, bool from_timer, bool front) {
  if (shutting_down_) {
    return;
  }
  Tcb& t = GetTcb(tid);
  if (t.state != ThreadState::kBlocked) {
    return;
  }
  ++t.wait_epoch;  // invalidates any other pending wakeup (stale timer / stale queue entry)
  t.timer_fired = from_timer;
  t.state = ThreadState::kReady;
  t.block_reason = BlockReason::kNone;
  t.wait_object = nullptr;
  PushReady(t, front);
  if (from_timer) {
    trace::MetricAdd(m_timer_fires_);
  }
  if (from_timer && trace_active_) {
    trace::Event e;
    e.time_us = now_;
    e.type = trace::EventType::kTimerFire;
    e.thread = tid;
    e.thread_sym = t.name_sym;
    e.priority = static_cast<uint8_t>(t.priority);
    tracer_->Record(e);
  }
}

ThreadId Scheduler::PopValidWaiter(WaitQueue& queue) {
  while (!queue.empty()) {
    WaitEntry entry = queue.front();
    queue.pop_front();
    Tcb& t = GetTcb(entry.tid);
    if (t.state == ThreadState::kBlocked && t.wait_epoch == entry.epoch) {
      return entry.tid;
    }
  }
  return kNoThread;
}

void Scheduler::EnqueueCurrentWaiter(WaitQueue& queue) {
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    throw UsageError("pcr: wait outside a pcr thread");
  }
  queue.push_back(WaitEntry{me->id, me->wait_epoch});
}

ThreadId Scheduler::BlockedOnOwner(const Tcb& t) const {
  if (t.state != ThreadState::kBlocked || t.block_reason != BlockReason::kMonitor) {
    return kNoThread;
  }
  return static_cast<const MonitorLock*>(t.wait_object)->owner();
}

uint64_t Scheduler::ConsultFault(FaultSite site) {
  if (fault_injector_ == nullptr || shutting_down_) {
    return 0;
  }
  uint64_t magnitude = fault_injector_->OnFaultPoint(site);
  if (magnitude != 0) {
    Emit(trace::EventType::kFaultInjected, static_cast<ObjectId>(site), magnitude);
    trace::MetricAdd(m_faults_injected_);
  }
  return magnitude;
}

bool Scheduler::WouldDeadlock(ThreadId owner) const {
  ThreadId cursor = owner;
  int steps = 0;
  while (cursor != kNoThread && steps++ < 10'000) {
    if (cursor == current_tid_) {
      return true;
    }
    if (cursor > tcbs_.size()) {
      return false;
    }
    cursor = BlockedOnOwner(*tcbs_[cursor - 1]);
  }
  return false;
}

void Scheduler::ScheduleInterrupt(Usec time, InterruptSource* source, uint64_t payload) {
  interrupts_.push(PendingInterrupt{std::max(time, now_), source, payload});
}

ThreadId Scheduler::RandomReadyThread() {
  random_scratch_.clear();
  ForEachReady([this](const Tcb& t) { random_scratch_.push_back(t.id); });
  if (random_scratch_.empty()) {
    return kNoThread;
  }
  return random_scratch_[RandomIndex(random_scratch_.size())];
}

// ---------------------------------------------------------------------------
// Seed-logged randomness
// ---------------------------------------------------------------------------

uint64_t Scheduler::RandomU64() {
  if (!rng_seed_logged_) {
    rng_seed_logged_ = true;
    Emit(trace::EventType::kRngSeed, 0, config_.seed);
  }
  return rng_();
}

double Scheduler::RandomUnit() {
  // 53 random bits into [0, 1), matching std::generate_canonical's resolution without its
  // implementation-defined draw count (which would make traces compiler-dependent).
  return static_cast<double>(RandomU64() >> 11) * 0x1.0p-53;
}

size_t Scheduler::RandomIndex(size_t n) {
  if (n == 0) {
    throw UsageError("pcr: RandomIndex(0)");
  }
  return static_cast<size_t>(RandomUnit() * static_cast<double>(n));
}

void Scheduler::MaybeForcePreempt(PreemptPoint point) {
  Tcb* me = CurrentTcb();
  if (perturber_ == nullptr || me == nullptr || shutting_down_ || me->processor < 0) {
    return;
  }
  if (!perturber_->ForcePreempt(point, me->id)) {
    return;
  }
  // A forced end-of-timeslice: requeue at the back of our priority level and reschedule. Unlike
  // YieldButNotToMe there is no penalty — the perturber is exploring legal schedules, not
  // changing policy.
  Emit(trace::EventType::kForcedPreempt, 0, static_cast<uint64_t>(point));
  trace::MetricAdd(m_forced_preempts_);
  Requeue(*me);
  me->fiber->Suspend();
  if (shutting_down_) {
    throw ThreadKilled();
  }
}

// ---------------------------------------------------------------------------
// Checkpoint support
// ---------------------------------------------------------------------------

void Scheduler::CheckpointPause() {
  if (!checkpoint_hook_) {
    return;
  }
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    // Scheduler-loop context (a PickNext tie-break): the loop already runs on the exec
    // fiber's stack, so the hook can suspend directly from here.
    checkpoint_hook_();
    ThrowIfCheckpointAborted();
    return;
  }
  // Simulated-thread context (a ForcePreempt consult): park the fiber and let the RunFiber
  // frame — which runs on the exec stack — fire the hook, so the snapshot sees this fiber
  // cleanly suspended.
  checkpoint_pause_pending_ = true;
  me->fiber->Suspend();
  if (shutting_down_) {
    // Resumed by Shutdown() while the group was being abandoned: unwind this thread.
    throw ThreadKilled();
  }
}

void Scheduler::ThrowIfCheckpointAborted() {
  if (!checkpoint_abort_) {
    return;
  }
  checkpoint_abort_ = false;
  // The throw unwinds RunLoop (whose flag management is not RAII) and whatever dispatch frame
  // the pause interrupted; reset both so the scheduler is reusable for diagnostics.
  in_run_loop_ = false;
  current_tid_ = kNoThread;
  throw CheckpointAbort{};
}

void Scheduler::RegisterCheckpointable(Checkpointable* object) {
  object->registry_slot_ = checkpointables_.size();
  checkpointables_.push_back(object);
}

void Scheduler::UnregisterCheckpointable(Checkpointable* object) {
  // O(1) in any order: the last entry moves into the vacated slot. Registry order carries no
  // meaning, since each object saves and restores only itself. An object whose entry a Restore
  // already dropped (it registered after the snapshot) is not found at its slot and is skipped.
  const size_t slot = object->registry_slot_;
  if (slot >= checkpointables_.size() || checkpointables_[slot] != object) {
    return;
  }
  Checkpointable* last = checkpointables_.back();
  checkpointables_[slot] = last;
  last->registry_slot_ = slot;
  checkpointables_.pop_back();
}

void Scheduler::UnpinFiber(ThreadId tid) {
  auto it = fiber_pins_.find(tid);
  if (it == fiber_pins_.end()) {
    return;
  }
  if (--it->second <= 0) {
    fiber_pins_.erase(it);
    fiber_limbo_.erase(tid);  // destroys the parked fiber, releasing its stack to the pool
  }
}

void Scheduler::RetireFiber(Tcb& tcb) {
  if (tcb.fiber && FiberPinned(tcb.id)) {
    fiber_limbo_[tcb.id] = std::move(tcb.fiber);
  }
  tcb.fiber.reset();
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

int Scheduler::EffectivePriority(const Tcb& tcb) const {
  if (tcb.boosted) {
    return kMaxPriority + 1;
  }
  if (tcb.penalized) {
    return 0;
  }
  return std::max(tcb.priority, tcb.inherited_priority);
}

// Inline, and the scan out of line, so that Compute still inlines the charge made in place.
inline int Scheduler::BestReadyPriority() {
  if (boosted_count_ == 0 && penalized_count_ == 0 && inherited_count_ == 0) {
    return ready_mask_ == 0 ? -1 : TopSetBit(ready_mask_);
  }
  if (best_ready_ == kBestReadyStale) {
    best_ready_ = ScanBestReady();
  }
  assert(best_ready_ == ScanBestReady() && "a ready-set or modifier change kept best_ready_");
  return best_ready_;
}

[[gnu::noinline]] int Scheduler::ScanBestReady() const {
  // SelectReadySlow pops a boosted thread (kMaxPriority + 1), else the best unpenalized one (at
  // least kMinPriority), else a penalized one (0): always one of maximal effective priority.
  int best = -1;
  ForEachReady([this, &best](const Tcb& t) { best = std::max(best, EffectivePriority(t)); });
  return best;
}

bool Scheduler::BoostedThreadReady() const {
  // Not BestReadyPriority() > kMaxPriority: a donation from a boosted thread also reaches it.
  bool found = false;
  ForEachReady([&found](const Tcb& t) { found = found || t.boosted; });
  return found;
}

// Always inlined into its one caller, AssignProcessors, so that the dispatch path stays one
// frame whatever the inliner decides about the Tracer::Record calls beside it. The frame depth
// matters beyond speed: a tie-break pause snapshots the exec stack at this depth.
[[gnu::always_inline]] inline ThreadId Scheduler::SelectReady() {
  // Fast path: with no boosted/penalized/inherited thread anywhere and strict-priority
  // scheduling, effective priority equals base priority, so the best candidate is simply the
  // front of the highest non-empty level — one find-first-set on the ready mask instead of a
  // three-pass scan over every queue. Falls back to the full scan whenever any modifier is
  // live (the counters track them exactly) or under fair share, whose rank depends on
  // accumulated CPU rather than the queue level.
  if (boosted_count_ == 0 && penalized_count_ == 0 && inherited_count_ == 0 &&
      config_.scheduling == SchedulingPolicy::kStrictPriority) {
    if (ready_mask_ == 0) {
      return kNoThread;
    }
    int pri = TopSetBit(ready_mask_);
    auto& queue = ready_[pri];
    // Tied threads are interchangeable: the perturber may re-decide the round-robin accident.
    if (perturber_ != nullptr && queue.size() > 1) {
      tied_scratch_.assign(queue.begin(), queue.end());
      size_t choice = perturber_->PickNext(tied_scratch_.data(), tied_scratch_.size());
      if (choice >= tied_scratch_.size()) {
        choice = 0;
      }
      ThreadId tid = tied_scratch_[choice];
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(choice));
      SyncReadyMask(pri);
      return tid;
    }
    ThreadId tid = queue.front();
    queue.pop_front();
    SyncReadyMask(pri);
    return tid;
  }
  return SelectReadySlow();
}

ThreadId Scheduler::SelectReadySlow() {
  // Pass 0: directed-yield donees win outright. Pass 1: selection by *effective* priority
  // (inheritance included), skipping YieldButNotToMe-penalized threads. Pass 2: penalized
  // threads as a last resort ("...other than its caller, if such a thread exists"). Queues are
  // indexed by base priority, so pass 1 scans for the best effective priority rather than
  // taking the first nonempty queue.
  for (int pass = 0; pass < 3; ++pass) {
    if (pass == 0 && boosted_count_ == 0) {
      continue;  // nothing can match; skip the scan
    }
    auto rank = [this, pass](const Tcb& t) {
      if (config_.scheduling == SchedulingPolicy::kFairShare && pass == 1) {
        // Proportional share: prefer the thread with the least CPU consumed per unit of
        // priority weight. Negated and clamped into an int so "higher is better" still holds.
        Usec passes = t.cpu_time / std::max(1, t.priority);
        return static_cast<int>(std::numeric_limits<int>::max() -
                                std::min<Usec>(passes, std::numeric_limits<int>::max() - 1));
      }
      return EffectivePriority(t);
    };
    int best_eff = -1;  // below even the penalized threads' effective priority of 0
    int best_pri = -1;
    std::deque<ThreadId>::iterator best_it;
    for (int pri = kMaxPriority; pri >= kMinPriority; --pri) {
      if ((ready_mask_ & (1u << pri)) == 0) {
        continue;
      }
      auto& queue = ready_[pri];
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        Tcb& t = GetTcb(*it);
        bool match = pass == 0 ? t.boosted : (pass == 1 ? !t.penalized : true);
        if (!match) {
          continue;
        }
        if (pass == 0) {
          // Any boosted thread wins immediately.
          ThreadId tid = *it;
          queue.erase(it);
          SyncReadyMask(pri);
          return tid;
        }
        int eff = rank(t);
        if (eff > best_eff) {
          best_eff = eff;
          best_pri = pri;
          best_it = it;
        }
      }
    }
    if (best_pri >= 0) {
      // Threads tied at the best rank are interchangeable under the scheduling policy; which
      // one runs is the round-robin accident a perturber is allowed to re-decide.
      if (perturber_ != nullptr && pass == 1) {
        tied_scratch_.clear();
        for (int pri = kMaxPriority; pri >= kMinPriority; --pri) {
          for (ThreadId tid : ready_[pri]) {
            Tcb& t = GetTcb(tid);
            if (!t.penalized && !t.boosted && rank(t) == best_eff) {
              tied_scratch_.push_back(tid);
            }
          }
        }
        if (tied_scratch_.size() > 1) {
          size_t choice = perturber_->PickNext(tied_scratch_.data(), tied_scratch_.size());
          if (choice >= tied_scratch_.size()) {
            choice = 0;
          }
          ThreadId tid = tied_scratch_[choice];
          Tcb& t = GetTcb(tid);
          auto& queue = ready_[t.priority];
          queue.erase(std::find(queue.begin(), queue.end(), tid));
          SyncReadyMask(t.priority);
          return tid;
        }
      }
      ThreadId tid = *best_it;
      ready_[best_pri].erase(best_it);
      SyncReadyMask(best_pri);
      return tid;
    }
  }
  return kNoThread;
}

void Scheduler::DonatePriority(ThreadId owner) {
  if (!config_.priority_inheritance) {
    return;
  }
  Tcb* me = CurrentTcb();
  if (me == nullptr) {
    return;
  }
  int donation = EffectivePriority(*me);
  ThreadId cursor = owner;
  int steps = 0;
  // Walk the owner chain (A blocks on M1 held by B, B blocks on M2 held by C, ...): everyone
  // between here and a runnable holder inherits the donation.
  while (cursor != kNoThread && steps++ < 1000) {
    Tcb& holder = GetTcb(cursor);
    if (holder.inherited_priority >= donation && holder.priority < donation) {
      break;  // already donated at this level
    }
    if (EffectivePriority(holder) >= donation) {
      break;  // holder already outranks the donation
    }
    SetInheritedPriority(holder, std::max(holder.inherited_priority, donation));
    cursor = BlockedOnOwner(holder);
  }
}

void Scheduler::ClearInheritedPriority(ThreadId tid) {
  if (tid == kNoThread || tid > tcbs_.size()) {
    return;
  }
  SetInheritedPriority(*tcbs_[tid - 1], 0);
}

void Scheduler::AssignProcessors() {
  for (size_t p = 0; p < running_.size(); ++p) {
    if (running_[p] != kNoThread) {
      continue;
    }
    ThreadId tid = SelectReady();
    if (tid == kNoThread) {
      if (last_running_[p] != kNoThread) {
        // Close the previous run so interval accounting sees the idle gap.
        if (trace_active_) {
          trace::Event e;
          e.time_us = now_;
          e.type = trace::EventType::kSwitch;
          e.processor = static_cast<uint16_t>(p);
          e.thread = kNoThread;
          tracer_->Record(e);
        }
        last_running_[p] = kNoThread;
        trace::MetricAdd(m_idle_parks_);
      }
      continue;
    }
    Tcb& t = GetTcb(tid);
    t.state = ThreadState::kRunning;
    t.processor = static_cast<int>(p);
    t.ready_since = -1;
    running_[p] = tid;
    if (last_running_[p] != tid) {
      if (trace_active_) {
        trace::Event e;
        e.time_us = now_;
        e.type = trace::EventType::kSwitch;
        e.processor = static_cast<uint16_t>(p);
        e.thread = tid;
        e.thread_sym = t.name_sym;
        e.priority = static_cast<uint8_t>(t.priority);
        tracer_->Record(e);
      }
      t.remaining += config_.costs.context_switch;
      last_running_[p] = tid;
      // This branch fires exactly when a thread!=0 kSwitch event would be recorded, so
      // sched.dispatches stays equal to the post-hoc Summary.switches count.
      trace::MetricAdd(m_dispatches_);
      if (m_ready_depth_ != nullptr) {
        size_t depth = 0;
        for (const auto& queue : ready_) {
          depth += queue.size();
        }
        m_ready_depth_->Record(static_cast<int64_t>(depth));
      }
    }
  }
}

void Scheduler::PreemptIfNeeded() {
  while (true) {
    const int best = BestReadyPriority();
    if (best < 0) {
      return;
    }
    if (config_.scheduling == SchedulingPolicy::kFairShare && !BoostedThreadReady()) {
      // Fair share reschedules only at quantum ticks (and for directed-yield donees): wakeups
      // do not preempt, which is exactly its weakness for reactive work (Section 6.2).
      return;
    }
    int weakest_proc = -1;
    int weakest_eff = std::numeric_limits<int>::max();
    for (size_t p = 0; p < running_.size(); ++p) {
      if (running_[p] == kNoThread) {
        return;  // an idle processor exists; AssignProcessors handles it
      }
      int eff = EffectivePriority(GetTcb(running_[p]));
      if (eff < weakest_eff) {
        weakest_eff = eff;
        weakest_proc = static_cast<int>(p);
      }
    }
    if (weakest_proc < 0 || best <= weakest_eff) {
      return;
    }
    // "If a system event causes a higher priority thread to become runnable, the scheduler will
    // preempt the currently running thread, even if it holds monitor locks" (Section 2).
    Tcb& victim = GetTcb(running_[static_cast<size_t>(weakest_proc)]);
    Emit(trace::EventType::kPreempt, victim.id, 0, victim.name_sym);
    trace::MetricAdd(m_preempts_);
    Requeue(victim, /*front=*/true);
    AssignProcessors();
  }
}

bool Scheduler::ChargeInPlace(Tcb& me) {
  // Suspending would run the loop once: Settle finds nothing to change, the clock advances to
  // the charge's end, and the caller resumes. That holds when the charge ends strictly before
  // anything else can happen — the next tick (which also bounds every timer), the earliest
  // interrupt, the run deadline — and no ready thread would preempt the caller (the
  // PreemptIfNeeded test). With P>1, other processors' completions would also bound the
  // charge, and fair share preempts by its own rule; neither is modelled here, so those
  // configurations always take the round trip.
  const Usec done = now_ + me.remaining;
  if (config_.processors != 1 || config_.scheduling != SchedulingPolicy::kStrictPriority ||
      done >= next_tick_due_ || done >= run_deadline_ ||
      (!interrupts_.empty() && done >= interrupts_.top().time)) {
    return false;
  }
  if (BestReadyPriority() > EffectivePriority(me)) {
    return false;
  }
  // The round trip's own state changes: the dispatch RunFiber counts once the fiber suspends,
  // then the clock advance (cpu_time, remaining, now_, livelock reset). No switch is counted.
  ++zero_progress_ops_;
  CheckLivelock();
  AdvanceTo(done);
  return true;
}

void Scheduler::RunFiber(Tcb& tcb) {
  if (!tcb.fiber) {
    Tcb* target = &tcb;
    bool from_pool = false;
    FiberStack stack = stack_pool_->Acquire(
        tcb.stack_bytes != 0 ? tcb.stack_bytes : config_.stack_bytes, &from_pool);
    ++stack_acquires_;
    trace::MetricAdd(m_stack_acquires_);
    if (from_pool) {
      ++stack_pool_hits_;
      trace::MetricAdd(m_stack_pool_hits_);
    }
    tcb.fiber = std::make_unique<Fiber>([this, target] { FiberBody(*target); },
                                        std::move(stack), stack_pool_);
    tcb.fiber->set_debug_id(tcb.id);
    stack_bytes_reserved_ += tcb.fiber->stack_reserved_bytes();
    if (stack_bytes_reserved_ > peak_stack_bytes_reserved_) {
      peak_stack_bytes_reserved_ = stack_bytes_reserved_;
      // Surface the high-water mark through the registry as well: monotone, so expressed as
      // the delta that raises the counter to the new peak.
      trace::MetricAdd(m_stack_peak_live_,
                       static_cast<int64_t>(peak_stack_bytes_reserved_) -
                           (m_stack_peak_live_ != nullptr ? m_stack_peak_live_->value() : 0));
    }
  }
  ThreadId previous = current_tid_;
  current_tid_ = tcb.id;
  fiber_switches_ += 2;  // one switch in, one back out when the fiber suspends or finishes
  trace::MetricAdd(m_fiber_switches_, 2);
  tcb.fiber->Resume();
  current_tid_ = previous;
  // Checkpoint pauses: the fiber parked itself at a perturber consult (CheckpointPause). Fire
  // the hook from this frame — which lives on the exec stack, so a snapshot/restore rewinds to
  // exactly here — then resume the same fiber to continue the consult. The flag clears before
  // the hook so the snapshot records it false; the hidden Resume round trip is deliberately
  // not counted in fiber_switches_ (a pause must be invisible to from-zero comparisons).
  while (checkpoint_pause_pending_) {
    checkpoint_pause_pending_ = false;
    checkpoint_hook_();
    ThrowIfCheckpointAborted();
    current_tid_ = tcb.id;
    tcb.fiber->Resume();
    current_tid_ = previous;
  }
  ++zero_progress_ops_;
  CheckLivelock();
  if (tcb.finished) {
    ReapIfPossible(tcb);
  }
}

void Scheduler::FiberBody(Tcb& tcb) {
  tcb.started = true;
  Emit(trace::EventType::kThreadStart);
  try {
    // Called in place rather than moved to a frame local: this stack is snapshotted byte-wise
    // by checkpoints, and a std::function living in a saved frame would revive as a dangling
    // closure on restore. The Tcb (host-owned, restored field-wise) is the safe home.
    tcb.entry();
  } catch (const ThreadKilled&) {
    // Normal shutdown unwind.
  } catch (...) {
    tcb.uncaught = std::current_exception();
  }
  // Free the closure now — ExitCurrent() parks the fiber and never returns — unless a live
  // checkpoint pinned this fiber, in which case a restore may rewind to mid-body and the
  // entry must stay intact (it is freed when the Tcb is destroyed).
  if (!FiberPinned(tcb.id)) {
    tcb.entry = nullptr;
  }
  ExitCurrent();
}

void Scheduler::ExitCurrent() {
  Tcb& me = *CurrentTcb();
  me.finished = true;
  me.state = ThreadState::kDone;
  Emit(trace::EventType::kThreadExit, 0, me.uncaught ? 1 : 0);
  if (me.uncaught) {
    ++uncaught_exits_;
    // Monitor abandonment: a thread that dies holding locks would leave every later entrant
    // blocked forever on a mutex nobody can release (the wedge of Section 5.4). Poison the
    // abandoned monitors instead so waiters get a diagnosable MonitorPoisoned error — most
    // recently acquired first, the order of the held list. Poison unlinks the lock, so the
    // successor is read first.
    const bool abandoned = me.held_monitors != nullptr;
    MonitorLock* next = me.held_monitors;
    while (MonitorLock* lock = next) {
      next = lock->next_held();
      lock->Poison();
      trace::MetricAdd(m_monitors_poisoned_);
    }
    if (me.detached || config_.fatal_uncaught) {
      // Nobody will ever Join this thread to rethrow the exception, so this report is the only
      // record of why it died.
      std::fprintf(stderr, "pcr: thread %u (%s) died of uncaught exception: %s\n", me.id,
                   me.name.c_str(), DescribeException(me.uncaught).c_str());
      if (config_.fatal_uncaught) {
        FlightDump("uncaught exception (fatal)");
        std::abort();
      }
    }
    FlightDump(abandoned ? "uncaught fiber exception; monitors poisoned"
                         : "uncaught fiber exception");
  }
  if (!shutting_down_) {
    --live_threads_;
    if (me.joiner != kNoThread) {
      WakeThread(me.joiner, /*from_timer=*/false);
    }
    if (live_threads_ < config_.max_threads) {
      ThreadId waiter = PopValidWaiter(fork_waiters_);
      if (waiter != kNoThread) {
        WakeThread(waiter, /*from_timer=*/false);
      }
    }
  }
  if (me.processor >= 0) {
    running_[static_cast<size_t>(me.processor)] = kNoThread;
    me.processor = -1;
  }
  me.fiber->Suspend();  // never resumed; Fiber parks finished fibers defensively
}

void Scheduler::ReapIfPossible(Tcb& tcb) {
  if (tcb.finished && (tcb.joined || tcb.detached) && tcb.fiber) {
    stack_bytes_reserved_ -= tcb.fiber->stack_reserved_bytes();
    RetireFiber(tcb);  // release the stack; the Tcb itself stays for stats/diagnostics
  }
}

void Scheduler::Settle() {
  while (true) {
    AssignProcessors();
    PreemptIfNeeded();
    Tcb* next_to_run = nullptr;
    for (ThreadId tid : running_) {
      if (tid == kNoThread) {
        continue;
      }
      Tcb& t = GetTcb(tid);
      if (t.remaining == 0) {
        next_to_run = &t;
        break;
      }
    }
    if (next_to_run == nullptr) {
      return;
    }
    RunFiber(*next_to_run);
  }
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

Usec Scheduler::NextTickAfter(Usec t) const { return (t / config_.quantum + 1) * config_.quantum; }

Usec Scheduler::GridDeadline(Usec relative_timeout) const {
  Usec ticks = (std::max<Usec>(0, relative_timeout) + config_.quantum - 1) / config_.quantum;
  return (now_ / config_.quantum + ticks) * config_.quantum;
}

Usec Scheduler::TickAtOrAfter(Usec t) const {
  return (t + config_.quantum - 1) / config_.quantum * config_.quantum;
}

std::vector<Scheduler::TimerEntry> Scheduler::TakeBucket() {
  if (timer_bucket_pool_.empty()) {
    return {};
  }
  std::vector<TimerEntry> bucket = std::move(timer_bucket_pool_.back());
  timer_bucket_pool_.pop_back();
  return bucket;
}

void Scheduler::RecycleBucket(std::vector<TimerEntry> bucket) {
  bucket.clear();
  if (timer_bucket_pool_.size() < 64) {
    timer_bucket_pool_.push_back(std::move(bucket));
  }
}

void Scheduler::ArmTimer(Usec deadline, ThreadId tid, uint64_t epoch) {
  // Deadlines come from GridDeadline, so the covering tick is exact; a non-aligned deadline
  // (defensive) lands in the first tick at/after it, which is when timers fire anyway.
  Usec tick = (std::max<Usec>(deadline, 0) + config_.quantum - 1) / config_.quantum;
  if (timer_count_ == 0) {
    while (!timer_wheel_.empty()) {
      RecycleBucket(std::move(timer_wheel_.front()));
      timer_wheel_.pop_front();
    }
    wheel_base_tick_ = tick;
    wheel_scan_hint_ = 0;
  }
  // The wheel grows at both ends: a deadline earlier than every bucket so far pulls the base
  // back to its tick. A tick at/under the last-fired tick still gets a real front bucket — it
  // fires on the next FireTimersUpTo call (next quantum), exactly like the old heap.
  if (tick < wheel_base_tick_) {
    for (Usec i = wheel_base_tick_ - tick; i > 0; --i) {
      timer_wheel_.push_front(TakeBucket());
    }
    wheel_base_tick_ = tick;
    wheel_scan_hint_ = 0;
  }
  size_t index = static_cast<size_t>(tick - wheel_base_tick_);
  while (timer_wheel_.size() <= index) {
    timer_wheel_.push_back(TakeBucket());
  }
  timer_wheel_[index].push_back(TimerEntry{deadline, tid, epoch});
  wheel_scan_hint_ = std::min(wheel_scan_hint_, index);
  ++timer_count_;
}

Usec Scheduler::NextTimerDeadline() {
  // Scan forward from the first possibly-non-empty bucket, compacting out stale entries
  // (threads woken by something else) like the old heap's pop loop. The hint makes repeated
  // calls amortized O(1); the base never moves here, so future buckets keep their tick.
  while (timer_count_ > 0 && wheel_scan_hint_ < timer_wheel_.size()) {
    std::vector<TimerEntry>& bucket = timer_wheel_[wheel_scan_hint_];
    size_t kept = 0;
    Usec best = -1;
    for (const TimerEntry& entry : bucket) {
      const Tcb& t = GetTcb(entry.tid);
      if (t.state == ThreadState::kBlocked && t.wait_epoch == entry.epoch) {
        if (best < 0 || entry.deadline < best) {
          best = entry.deadline;
        }
        bucket[kept++] = entry;
      } else {
        --timer_count_;
      }
    }
    bucket.resize(kept);
    if (kept > 0) {
      return best;
    }
    ++wheel_scan_hint_;
  }
  return -1;
}

Usec Scheduler::NextInterruptTime() const {
  return interrupts_.empty() ? -1 : interrupts_.top().time;
}

void Scheduler::FireTimersUpTo(Usec t) {
  Usec target_tick = t / config_.quantum;  // buckets with tick*quantum <= t are due
  while (timer_count_ > 0 && !timer_wheel_.empty() && wheel_base_tick_ <= target_tick) {
    std::vector<TimerEntry> bucket = std::move(timer_wheel_.front());
    timer_wheel_.pop_front();
    ++wheel_base_tick_;
    if (wheel_scan_hint_ > 0) {
      --wheel_scan_hint_;
    }
    for (const TimerEntry& entry : bucket) {
      --timer_count_;
      Tcb& thread = GetTcb(entry.tid);
      if (thread.state == ThreadState::kBlocked && thread.wait_epoch == entry.epoch) {
        WakeThread(entry.tid, /*from_timer=*/true);
      }
    }
    RecycleBucket(std::move(bucket));
  }
}

void Scheduler::DeliverInterruptsUpTo(Usec t) {
  while (!interrupts_.empty() && interrupts_.top().time <= t) {
    PendingInterrupt pending = interrupts_.top();
    interrupts_.pop();
    pending.source->DeliverFromScheduler(pending.payload);
  }
}

void Scheduler::HandleTick() {
  trace::MetricAdd(m_ticks_);
  // The tick ends YieldButNotToMe penalties and directed-yield boosts (Section 6.3: "The end of
  // a timeslice ends the effect of a YieldButNotToMe or a directed yield"). The counters make
  // the sweep free in the overwhelmingly common tick with no live modifier.
  if (penalized_count_ > 0 || boosted_count_ > 0) {
    for (auto& tcb : tcbs_) {
      SetPenalized(*tcb, false);
      SetBoosted(*tcb, false);
    }
  }
  FireTimersUpTo(now_);
  // Round-robin rotation among equal (effective) priorities; under fair share the tick is the
  // only rescheduling point, so any ready competitor rotates the incumbent out.
  for (size_t p = 0; p < running_.size(); ++p) {
    ThreadId tid = running_[p];
    if (tid == kNoThread) {
      continue;
    }
    Tcb& t = GetTcb(tid);
    const int best = BestReadyPriority();
    if (best < 0) {
      continue;
    }
    bool rotate = config_.scheduling == SchedulingPolicy::kFairShare ||
                  best >= EffectivePriority(t);
    if (rotate) {
      Requeue(t);  // its boost, if any, ended with the sweep above
    }
  }
}

void Scheduler::AdvanceTo(Usec t) {
  Usec dt = t - now_;
  if (dt <= 0) {
    return;
  }
  for (ThreadId tid : running_) {
    if (tid == kNoThread) {
      continue;
    }
    Tcb& thread = GetTcb(tid);
    thread.remaining = std::max<Usec>(0, thread.remaining - dt);
    thread.cpu_time += dt;
  }
  now_ = t;
  zero_progress_ops_ = 0;
}

void Scheduler::CheckLivelock() {
  if (zero_progress_ops_ > kZeroProgressLimit) {
    std::fprintf(stderr,
                 "pcr: livelock: %lld dispatches with no virtual-time progress at t=%lld us "
                 "(zero-cost spin loop?)\n",
                 static_cast<long long>(zero_progress_ops_), static_cast<long long>(now_));
    std::abort();
  }
}

RunStatus Scheduler::RunLoop(Usec deadline, bool idle_to_deadline) {
  in_run_loop_ = true;
  run_deadline_ = deadline;
  if (next_tick_due_ == 0) {
    next_tick_due_ = config_.quantum;
  }
  RunStatus status = RunStatus::kDeadline;
  while (true) {
    // Process any ticks that have come due — including one exactly at a previous RunFor
    // deadline, which would otherwise be skipped forever.
    while (next_tick_due_ <= now_) {
      HandleTick();
      next_tick_due_ += config_.quantum;
    }
    DeliverInterruptsUpTo(now_);
    Settle();

    Usec next = -1;
    auto consider = [&next](Usec t) {
      if (t >= 0 && (next < 0 || t < next)) {
        next = t;
      }
    };
    bool any_running = false;
    for (ThreadId tid : running_) {
      if (tid != kNoThread) {
        any_running = true;
        consider(now_ + GetTcb(tid).remaining);
      }
    }
    bool timers_pending = NextTimerDeadline() >= 0;
    if (any_running || timers_pending) {
      consider(next_tick_due_);
    }
    consider(NextInterruptTime());

    if (next < 0) {
      if (idle_to_deadline) {
        now_ = std::max(now_, deadline);  // RunFor semantics: the wall clock still passes
      }
      status = RunStatus::kQuiescent;
      break;
    }
    if (next >= deadline) {
      AdvanceTo(deadline);
      status = RunStatus::kDeadline;
      break;
    }
    AdvanceTo(next);
  }
  in_run_loop_ = false;
  return status;
}

RunStatus Scheduler::RunFor(Usec duration) {
  if (current_tid_ != kNoThread || in_run_loop_) {
    throw UsageError("pcr: RunFor called from inside the runtime");
  }
  return RunLoop(now_ + duration, /*idle_to_deadline=*/true);
}

RunStatus Scheduler::RunUntilQuiescent(Usec max_duration) {
  if (current_tid_ != kNoThread || in_run_loop_) {
    throw UsageError("pcr: RunUntilQuiescent called from inside the runtime");
  }
  // Unlike RunFor, the clock stops at the moment of quiescence, so now() reads as the
  // completion time of the last piece of work.
  return RunLoop(now_ + max_duration, /*idle_to_deadline=*/false);
}

QuiescentInfo Scheduler::quiescent_info() const {
  QuiescentInfo info;
  for (const auto& tcb : tcbs_) {
    if (!tcb->finished) {
      info.all_threads_done = false;
      if (tcb->state == ThreadState::kBlocked) {
        info.blocked_threads.push_back(tcb->id);
      }
    }
  }
  return info;
}

void Scheduler::Shutdown() {
  if (shutting_down_) {
    return;
  }
  shutting_down_ = true;
  for (auto& tcb : tcbs_) {
    Tcb& t = *tcb;
    if (t.finished || !t.fiber || !t.fiber->started()) {
      t.state = ThreadState::kDone;
      t.finished = true;
      RetireFiber(t);
      continue;
    }
    ThreadId previous = current_tid_;
    current_tid_ = t.id;
    int guard = 0;
    while (!t.finished && ++guard < 64) {
      t.fiber->Resume();
    }
    current_tid_ = previous;
    if (!t.finished) {
      std::fprintf(stderr, "pcr: thread %u (%s) survived shutdown unwinding\n", t.id,
                   t.name.c_str());
    }
    RetireFiber(t);
  }
  live_threads_ = 0;
  for (auto& queue : ready_) {
    queue.clear();
  }
  ready_mask_ = 0;
  best_ready_ = kBestReadyStale;
  std::fill(running_.begin(), running_.end(), kNoThread);
}

}  // namespace pcr
