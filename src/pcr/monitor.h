// Mesa monitor locks.
//
// "A monitor is a set of procedures, or module, that share a mutual exclusion lock, or mutex...
// Other threads wanting to enter the monitor are enqueued on the mutex" (Section 2). Monitors
// are not re-entrant; recursive entry is a programming error that would self-deadlock in Mesa,
// and we diagnose it. Wakeups from Exit put one waiter back in competition for the lock (Mesa
// semantics allow barging: woken threads "must compete for the monitor's mutex").
//
// The monitor also hosts the deferred-reschedule list used by the Section 6.1 fix for spurious
// lock conflicts: with Config::defer_notify_reschedule, threads notified on this monitor's CVs
// become runnable only when the lock is released.

#ifndef SRC_PCR_MONITOR_H_
#define SRC_PCR_MONITOR_H_

#include <exception>
#include <string>
#include <vector>

#include "src/pcr/checkpoint.h"
#include "src/pcr/ids.h"
#include "src/pcr/scheduler.h"

namespace pcr {

class MonitorLock : public Checkpointable {
 public:
  MonitorLock(Scheduler& scheduler, std::string name);
  ~MonitorLock() override;

  MonitorLock(const MonitorLock&) = delete;
  MonitorLock& operator=(const MonitorLock&) = delete;

  const std::string& name() const { return name_; }
  ObjectId id() const { return id_; }

  // Acquires the lock, blocking while another thread holds it. Counts one "ML enter" in the
  // trace; blocking additionally counts a contention.
  void Enter();

  // Releases the lock; flushes deferred notify wakeups and wakes one entry waiter.
  void Exit();

  // Non-blocking acquire; returns false if the lock is held.
  bool TryEnter();

  ThreadId owner() const { return owner_; }
  bool HeldByCurrent() const;
  const WaitQueue& entry_waiters() const { return entry_waiters_; }
  // The next monitor in the owner's held list (Tcb::held_monitors), acquired before this one.
  MonitorLock* next_held() const { return next_held_; }

  // Marks the monitor abandoned: the owner died (uncaught exception) without releasing it.
  // Every queued and future entrant gets MonitorPoisoned instead of blocking forever on a lock
  // nobody can release. Called by the scheduler's thread-death path; idempotent.
  void Poison();
  bool poisoned() const { return poisoned_; }

  // --- internal, used by Condition ---

  // Release-for-WAIT: like Exit but remembers nothing about the caller; Wait re-enters later.
  void ReleaseForWait();
  // Re-entry after a WAIT completes; emits a fresh ML-enter and detects spurious conflicts
  // against `notifier` (kNoThread when the wait timed out).
  void ReacquireAfterWait(ThreadId notifier);
  // Queues a thread whose notify-wakeup is deferred until the lock is released (Section 6.1).
  void DeferWakeup(ThreadId tid);

  // Shutdown-unwind support: re-marks the current thread as owner without blocking or tracing,
  // so MonitorGuard destructors can Exit cleanly while a ThreadKilled unwinds out of Wait().
  void ForceAcquireForUnwind();

  Scheduler& scheduler() { return scheduler_; }

  // Checkpointable: heap-owning members are name_, entry_waiters_, deferred_wakeups_; every
  // scalar (owner and held-list link, poison, metric handles — registry nodes are
  // address-stable) rides the raw byte image. See checkpoint.h for the
  // teardown/memcpy/placement-new protocol.
  void CheckpointSave(CheckpointedObjectState* state) const override;
  void CheckpointTeardown() override;
  void CheckpointRestore(const CheckpointedObjectState& state) override;
  void* CheckpointStorage() override { return this; }
  size_t CheckpointStorageBytes() const override { return sizeof(MonitorLock); }

 private:
  void AcquireSlowPath(bool count_spurious, ThreadId notifier);
  void ReleaseInternal();
  void ThrowIfPoisoned() const;
  // The only writer of owner_: moves this lock from the old owner's held list to the head of
  // the new owner's (kNoThread: no list).
  void SetOwner(ThreadId tid);

  Scheduler& scheduler_;
  std::string name_;
  ObjectId id_;
  uint32_t name_sym_;  // `name_` interned in the tracer's symbol table
  void RegisterContentionMetrics();

  ThreadId owner_ = kNoThread;
  MonitorLock* next_held_ = nullptr;  // owner_'s held list, toward older acquisitions
  bool poisoned_ = false;
  Usec acquired_at_ = 0;  // when owner_ last took the lock (for the hold-time histograms)
  // This monitor's own series (nullptr with metrics off), registered on first contention — see
  // RegisterContentionMetrics for why. The scheduler keeps the monitor.* rollups.
  bool per_monitor_registered_ = false;
  trace::Counter* m_contentions_ = nullptr;
  trace::Log2Histogram* m_hold_us_ = nullptr;
  WaitQueue entry_waiters_;
  std::vector<ThreadId> deferred_wakeups_;
};

// RAII guard; the idiomatic way to write a monitored procedure body.
class MonitorGuard {
 public:
  explicit MonitorGuard(MonitorLock& lock) : lock_(lock) { lock_.Enter(); }
  // noexcept(false): Exit charges virtual time, which is a suspension point; a thread parked
  // there when the runtime shuts down unwinds with ThreadKilled *out of this destructor*.
  // An exception can also unwind out of WAIT while the monitor is released (injected thread
  // death, deadlock verdict, poison): then this thread does not own the lock — possibly a live
  // peer does — and Exit must be skipped, not forced (a shutdown kill instead has ownership
  // re-marked as it leaves WAIT, so it still Exits normally here).
  ~MonitorGuard() noexcept(false) {
    if (std::uncaught_exceptions() > 0 && !lock_.HeldByCurrent()) {
      return;
    }
    lock_.Exit();
  }

  MonitorGuard(const MonitorGuard&) = delete;
  MonitorGuard& operator=(const MonitorGuard&) = delete;

  MonitorLock& lock() { return lock_; }

 private:
  MonitorLock& lock_;
};

}  // namespace pcr

#endif  // SRC_PCR_MONITOR_H_
