#include "src/pcr/condition.h"

#include <exception>
#include <new>

#include "src/trace/event.h"

namespace pcr {

Condition::Condition(MonitorLock& lock, std::string name, Usec timeout)
    : lock_(lock), name_(std::move(name)), id_(lock.scheduler().NextObjectId()),
      name_sym_(lock.scheduler().InternName(name_)), timeout_(timeout) {
  lock_.scheduler().RegisterCheckpointable(this);
}

Condition::~Condition() { lock_.scheduler().UnregisterCheckpointable(this); }

void Condition::CheckpointSave(CheckpointedObjectState* state) const {
  ckpt::AppendString(&state->extra, name_);
  ckpt::AppendPodRange(&state->extra, waiters_);
}

void Condition::CheckpointTeardown() {
  name_.~basic_string();
  waiters_.~WaitQueue();
}

void Condition::CheckpointRestore(const CheckpointedObjectState& state) {
  const char* cursor = state.extra.data();
  new (&name_) std::string(ckpt::ReadString(&cursor));
  new (&waiters_) WaitQueue();
  ckpt::ReadPodRange(&cursor, &waiters_);
}

bool Condition::Wait() {
  Scheduler& s = lock_.scheduler();
  if (!lock_.HeldByCurrent()) {
    throw UsageError("pcr: WAIT on " + name_ + " without holding monitor " + lock_.name());
  }
  Tcb* me = s.CurrentTcb();
  me->notified_by = kNoThread;
  const Usec wait_began = s.now();
  s.Emit(trace::EventType::kCvWait, id_, 0, name_sym_);
  s.Compute(s.config().costs.cv_wait);
  s.EnqueueCurrentWaiter(waiters_);
  // "The WAIT operation atomically releases the monitor lock and adds its calling thread to the
  // CV's wait queue" (Section 2).
  lock_.ReleaseForWait();
  Usec deadline = timeout_ < 0 ? -1 : s.GridDeadline(timeout_);
  // Shutdown unwind: a ThreadKilled leaving the released-monitor window below must leave the lock
  // owned again, because the enclosing MonitorGuard will Exit. A destructor re-marks ownership
  // instead of a catch-and-rethrow, whose rethrow would run both phases of the unwinder a second
  // time on every kill. It recognizes the kill without a handler: entered with no exception in
  // flight, the window raises nothing but ThreadKilled once shutdown has begun (BlockCurrent and
  // the re-entry charge throw it on entry or on resume, before anything else can fail).
  // Any other exception surfacing while the monitor is released — an injected thread death,
  // deadlock verdict, or poison inside ReacquireAfterWait — unwinds WITHOUT ownership; the
  // enclosing MonitorGuard detects that and skips its Exit. Force-acquiring then would steal
  // the lock from a live owner mid-critical-section.
  struct ReownOnKill {
    MonitorLock& lock;
    const bool entered_unwinding = std::uncaught_exceptions() > 0;
    ~ReownOnKill() {
      if (!entered_unwinding && std::uncaught_exceptions() > 0 &&
          lock.scheduler().shutting_down() && !lock.HeldByCurrent()) {
        lock.ForceAcquireForUnwind();
      }
    }
  };
  bool timed_out;
  {
    ReownOnKill reown{lock_};
    timed_out = s.BlockCurrent(BlockReason::kCondition, this, deadline);
    s.Emit(timed_out ? trace::EventType::kCvTimeout : trace::EventType::kCvNotified, id_, 0,
           name_sym_);
    // The cv.wait_us.* histograms: Table 2's timeout-vs-notify split as a live metric.
    s.RecordWait(timed_out, s.now() - wait_began);
    ++(timed_out ? timeout_exits_ : notified_exits_);
    ThreadId notifier = timed_out ? kNoThread : me->notified_by;
    lock_.ReacquireAfterWait(notifier);
  }
  // Exploration point: a WAIT that has re-acquired the lock but not yet rechecked its predicate
  // — the window that separates IF-based waits from WHILE-based waits (Section 5.3).
  s.MaybeForcePreempt(PreemptPoint::kWaitReturn);
  return !timed_out;
}

void Condition::RequireLockForSignal(const char* op) const {
  if (lock_.scheduler().config().require_lock_for_notify && !lock_.HeldByCurrent()) {
    throw UsageError(std::string("pcr: ") + op + " on " + name_ + " without holding monitor " +
                     lock_.name());
  }
}

bool Condition::SignalOne() {
  Scheduler& s = lock_.scheduler();
  ThreadId waiter = s.PopValidWaiter(waiters_);
  if (waiter == kNoThread) {
    return false;
  }
  s.GetTcb(waiter).notified_by = s.current();
  if (s.config().defer_notify_reschedule && lock_.HeldByCurrent()) {
    // The Section 6.1 fix: the notification happens now, but the thread becomes runnable only
    // when the notifier leaves the monitor, so it cannot wake up just to block on the lock.
    lock_.DeferWakeup(waiter);
  } else {
    s.WakeThread(waiter, /*from_timer=*/false);
  }
  return true;
}

void Condition::Notify() {
  Scheduler& s = lock_.scheduler();
  if (s.current() == kNoThread) {
    // Host context: the simulation is stopped, so wake directly (no lock, no cost, no trace).
    ThreadId waiter = s.PopValidWaiter(waiters_);
    if (waiter != kNoThread) {
      s.WakeThread(waiter, /*from_timer=*/false);
    }
    return;
  }
  RequireLockForSignal("NOTIFY");
  bool woke = false;
  if (s.ConsultFault(FaultSite::kNotifyLost) != 0) {
    // Injected lost notify: the notification evaporates and the waiter stays queued — the
    // paper's missing-notify class (Section 5.3), normally masked by the CV timeout.
  } else {
    woke = SignalOne();
    if (woke && s.ConsultFault(FaultSite::kNotifyDup) != 0) {
      // Injected duplicate notify: one extra waiter wakes with its predicate possibly false,
      // which only WHILE-based waits survive.
      SignalOne();
    }
  }
  s.Emit(trace::EventType::kCvNotify, id_, woke ? 1 : 0, name_sym_);
  s.Compute(s.config().costs.cv_notify);
  // Exploration point: notify-then-preempt is the schedule behind Section 6.1's spurious lock
  // conflicts when rescheduling is not deferred.
  s.MaybeForcePreempt(PreemptPoint::kNotify);
}

void Condition::Broadcast() {
  Scheduler& s = lock_.scheduler();
  if (s.current() == kNoThread) {
    while (true) {
      ThreadId waiter = s.PopValidWaiter(waiters_);
      if (waiter == kNoThread) {
        return;
      }
      s.WakeThread(waiter, /*from_timer=*/false);
    }
  }
  RequireLockForSignal("BROADCAST");
  uint64_t woken = 0;
  while (SignalOne()) {
    ++woken;
  }
  s.Emit(trace::EventType::kCvBroadcast, id_, woken, name_sym_);
  s.Compute(s.config().costs.cv_notify);
  s.MaybeForcePreempt(PreemptPoint::kNotify);
}

}  // namespace pcr
