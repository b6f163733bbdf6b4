#include "src/pcr/monitor.h"

#include <new>

#include "src/trace/event.h"

namespace pcr {

MonitorLock::MonitorLock(Scheduler& scheduler, std::string name)
    : scheduler_(scheduler), name_(std::move(name)), id_(scheduler.NextObjectId()),
      name_sym_(scheduler.InternName(name_)) {
  scheduler_.RegisterCheckpointable(this);
}

void MonitorLock::RegisterContentionMetrics() {
  // Per-monitor series are registered on first contention, not at construction: workloads
  // create thousands of short-lived uncontended monitors (one per compilation, per document,
  // ...), and eagerly registering two dead series for each would swamp the registry. The
  // uncontended world is fully covered by the monitor.* rollups; a monitor earns its own
  // contentions/hold_us series the moment it first matters for blocking. Same-named monitors
  // share a series (register-or-get), which aggregates per-module rather than per-instance.
  per_monitor_registered_ = true;
  m_contentions_ = scheduler_.MetricCounter("monitor." + name_ + ".contentions");
  m_hold_us_ = scheduler_.MetricHistogram("monitor." + name_ + ".hold_us");
}

MonitorLock::~MonitorLock() {
  scheduler_.UnregisterCheckpointable(this);
  // A lock destroyed while held leaves its owner's held list. The owner can be gone: a
  // checkpoint restore drops threads forked after the snapshot.
  if (owner_ != kNoThread && scheduler_.FindThread(owner_) != nullptr) {
    SetOwner(kNoThread);
  }
}

void MonitorLock::SetOwner(ThreadId tid) {
  if (owner_ != kNoThread) {
    // Usually the head: monitors are mostly released in reverse order of entry. Absent only
    // for a lock created after a checkpoint that a restore rewound the owner past.
    MonitorLock** link = &scheduler_.GetTcb(owner_).held_monitors;
    while (*link != nullptr && *link != this) {
      link = &(*link)->next_held_;
    }
    if (*link == this) {
      *link = next_held_;
    }
    next_held_ = nullptr;
  }
  owner_ = tid;
  if (tid != kNoThread) {
    Tcb& t = scheduler_.GetTcb(tid);
    next_held_ = t.held_monitors;
    t.held_monitors = this;
  }
}

void MonitorLock::CheckpointSave(CheckpointedObjectState* state) const {
  ckpt::AppendString(&state->extra, name_);
  ckpt::AppendPodRange(&state->extra, entry_waiters_);
  ckpt::AppendPodRange(&state->extra, deferred_wakeups_);
}

void MonitorLock::CheckpointTeardown() {
  name_.~basic_string();
  entry_waiters_.~WaitQueue();
  deferred_wakeups_.~vector();
}

void MonitorLock::CheckpointRestore(const CheckpointedObjectState& state) {
  const char* cursor = state.extra.data();
  new (&name_) std::string(ckpt::ReadString(&cursor));
  new (&entry_waiters_) WaitQueue();
  ckpt::ReadPodRange(&cursor, &entry_waiters_);
  new (&deferred_wakeups_) std::vector<ThreadId>();
  ckpt::ReadPodRange(&cursor, &deferred_wakeups_);
}

bool MonitorLock::HeldByCurrent() const {
  return owner_ != kNoThread && owner_ == scheduler_.current();
}

void MonitorLock::Enter() {
  scheduler_.Emit(trace::EventType::kMlEnter, id_, 0, name_sym_);
  scheduler_.Compute(scheduler_.config().costs.monitor_enter);
  AcquireSlowPath(/*count_spurious=*/false, kNoThread);
  // Exploration point: being preempted right after acquiring (still holding the lock) is legal
  // under Section 2's model and is where lock-holder-preempted schedules come from.
  scheduler_.MaybeForcePreempt(PreemptPoint::kMonitorEnter);
}

void MonitorLock::ReacquireAfterWait(ThreadId notifier) {
  scheduler_.Emit(trace::EventType::kMlEnter, id_, 0, name_sym_);
  scheduler_.Compute(scheduler_.config().costs.monitor_enter);
  AcquireSlowPath(/*count_spurious=*/true, notifier);
}

void MonitorLock::AcquireSlowPath(bool count_spurious, ThreadId notifier) {
  ThreadId me = scheduler_.current();
  if (me == kNoThread) {
    throw UsageError("pcr: monitor Enter outside a pcr thread (" + name_ + ")");
  }
  if (owner_ == me) {
    // Mesa monitors are not re-entrant: a recursive entry blocks on itself forever.
    throw DeadlockError("pcr: recursive entry into monitor " + name_);
  }
  ThrowIfPoisoned();
  bool contended = false;
  while (owner_ != kNoThread) {
    if (!contended) {
      contended = true;
      scheduler_.Emit(trace::EventType::kMlContend, id_, owner_, name_sym_);
      if (!per_monitor_registered_) {
        RegisterContentionMetrics();
      }
      trace::MetricAdd(m_contentions_);
      scheduler_.CountContention();
      if (count_spurious && notifier != kNoThread && owner_ == notifier) {
        // Section 6.1: the notified thread woke up only to block on the monitor still held by
        // its notifier — a spurious lock conflict ("useless trips through the scheduler").
        scheduler_.Emit(trace::EventType::kSpuriousConflict, id_, notifier, name_sym_);
      }
      if (scheduler_.config().detect_deadlock && scheduler_.WouldDeadlock(owner_)) {
        throw DeadlockError("pcr: monitor wait cycle detected entering " + name_);
      }
    }
    scheduler_.DonatePriority(owner_);  // no-op unless Config::priority_inheritance
    scheduler_.EnqueueCurrentWaiter(entry_waiters_);
    scheduler_.BlockCurrent(BlockReason::kMonitor, this, -1);
    ThrowIfPoisoned();  // the wakeup may be Poison() flushing the entry queue
  }
  SetOwner(me);
  acquired_at_ = scheduler_.now();
}

bool MonitorLock::TryEnter() {
  ThreadId me = scheduler_.current();
  if (me == kNoThread) {
    throw UsageError("pcr: monitor TryEnter outside a pcr thread (" + name_ + ")");
  }
  ThrowIfPoisoned();
  if (owner_ != kNoThread) {
    return false;
  }
  scheduler_.Emit(trace::EventType::kMlEnter, id_, 0, name_sym_);
  scheduler_.Compute(scheduler_.config().costs.monitor_enter);
  // The charge is a preemption point; someone may have taken the lock meanwhile.
  if (owner_ != kNoThread) {
    return false;
  }
  SetOwner(me);
  acquired_at_ = scheduler_.now();
  return true;
}

void MonitorLock::Exit() {
  if (!HeldByCurrent()) {
    throw UsageError("pcr: monitor Exit without ownership (" + name_ + ")");
  }
  scheduler_.Emit(trace::EventType::kMlExit, id_, 0, name_sym_);
  ReleaseInternal();
  scheduler_.Compute(scheduler_.config().costs.monitor_exit);
  // Exploration point: the barging window — woken waiters compete for the lock from here.
  scheduler_.MaybeForcePreempt(PreemptPoint::kMonitorExit);
}

void MonitorLock::ReleaseForWait() {
  scheduler_.Emit(trace::EventType::kMlExit, id_, 0, name_sym_);
  ReleaseInternal();
}

void MonitorLock::ReleaseInternal() {
  if (owner_ != kNoThread && !scheduler_.shutting_down()) {
    // Skipped during shutdown unwinding: ForceAcquireForUnwind re-marks owners without
    // stamping acquired_at_, and a synthetic hold time would pollute the histogram.
    const Usec held = scheduler_.now() - acquired_at_;
    trace::MetricRecord(m_hold_us_, held);
    scheduler_.RecordHold(held);
  }
  scheduler_.ClearInheritedPriority(owner_);  // the donation ends with the critical section
  SetOwner(kNoThread);
  // Flush wakeups deferred by NOTIFY under Config::defer_notify_reschedule: "defer processor
  // rescheduling, but not the notification itself, until after monitor exit" (Section 6.1).
  if (!deferred_wakeups_.empty()) {
    std::vector<ThreadId> wakeups;
    wakeups.swap(deferred_wakeups_);
    for (ThreadId tid : wakeups) {
      scheduler_.WakeThread(tid, /*from_timer=*/false);
    }
  }
  ThreadId next = scheduler_.PopValidWaiter(entry_waiters_);
  if (next != kNoThread) {
    scheduler_.WakeThread(next, /*from_timer=*/false);
  }
}

void MonitorLock::DeferWakeup(ThreadId tid) { deferred_wakeups_.push_back(tid); }

void MonitorLock::ThrowIfPoisoned() const {
  if (poisoned_) {
    throw MonitorPoisoned("pcr: monitor " + name_ +
                          " poisoned: owner died with an uncaught exception");
  }
}

void MonitorLock::Poison() {
  if (poisoned_) {
    return;
  }
  poisoned_ = true;
  scheduler_.Emit(trace::EventType::kMonitorPoisoned, id_, owner_, name_sym_);
  scheduler_.ClearInheritedPriority(owner_);
  SetOwner(kNoThread);
  // Wake every deferred wakeup and queued entrant: each retries the acquire in its own
  // context, observes the poison, and gets MonitorPoisoned instead of blocking forever.
  if (!deferred_wakeups_.empty()) {
    std::vector<ThreadId> wakeups;
    wakeups.swap(deferred_wakeups_);
    for (ThreadId tid : wakeups) {
      scheduler_.WakeThread(tid, /*from_timer=*/false);
    }
  }
  for (ThreadId next = scheduler_.PopValidWaiter(entry_waiters_); next != kNoThread;
       next = scheduler_.PopValidWaiter(entry_waiters_)) {
    scheduler_.WakeThread(next, /*from_timer=*/false);
  }
}

void MonitorLock::ForceAcquireForUnwind() {
  SetOwner(scheduler_.current());
  // Only a shutdown kill leaving WAIT takes this path, and ReleaseInternal records no hold time
  // while shutting down; the stamp just keeps acquired_at_ from going stale.
  acquired_at_ = scheduler_.now();
}

}  // namespace pcr
