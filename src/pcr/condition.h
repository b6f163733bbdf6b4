// Mesa condition variables.
//
// "Each CV represents a state of the module's data structures (a condition) and a queue of
// threads waiting for that condition to become true" (Section 2). Semantics reproduced here:
//   * WAIT atomically releases the monitor lock and enqueues the caller; on wakeup the caller
//     re-competes for the lock, so the condition must be rechecked — hence Await(), which wraps
//     the mandatory "WAIT only in a loop" convention (Section 5.3).
//   * NOTIFY has exactly-one-waiter-wakens semantics; BROADCAST wakes all.
//   * WAITs may time out. The timeout interval is a property of the CV, granular to the
//     scheduler quantum (Section 2); most waits in the measured systems ended in timeouts
//     (Table 2).
//   * CV operations require the monitor lock (enforced unless Config::require_lock_for_notify
//     is cleared, which reproduces the corresponding class of bugs).

#ifndef SRC_PCR_CONDITION_H_
#define SRC_PCR_CONDITION_H_

#include <string>

#include "src/pcr/ids.h"
#include "src/pcr/monitor.h"

namespace pcr {

class Condition : public Checkpointable {
 public:
  // `timeout` < 0 means WAITs never time out. Mesa associates the timeout with the CV, not the
  // individual WAIT.
  Condition(MonitorLock& lock, std::string name, Usec timeout = -1);
  ~Condition() override;

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  const std::string& name() const { return name_; }
  ObjectId id() const { return id_; }
  MonitorLock& lock() { return lock_; }

  void set_timeout(Usec timeout) { timeout_ = timeout; }
  Usec timeout() const { return timeout_; }

  // One WAIT: releases the lock, blocks, re-acquires. Returns false if the wait ended by
  // timeout. The caller must hold the lock and must recheck its predicate afterwards.
  bool Wait();

  // The "WAIT only in a loop" convention as an API: waits until predicate() is true. Returns
  // false if `max_wait` (absolute budget, -1 = unbounded) elapsed with the predicate still
  // false.
  template <typename Predicate>
  bool Await(Predicate predicate, Usec max_wait = -1) {
    Usec deadline = max_wait < 0 ? -1 : lock_.scheduler().now() + max_wait;
    while (!predicate()) {
      Wait();
      if (deadline >= 0 && lock_.scheduler().now() >= deadline && !predicate()) {
        return false;
      }
    }
    return true;
  }

  // Wakes exactly one waiter (if any). Requires the monitor lock.
  void Notify();
  // Wakes all waiters. Requires the monitor lock.
  void Broadcast();

  // Queued entries, stale ones included (they are skipped when popped, never removed early).
  const WaitQueue& waiters() const { return waiters_; }

  // Completed-WAIT counts split by cause (Table 2's timeout-vs-notify distinction). The
  // watchdog's missing-notify heuristic reads these: many timeout exits and zero notified
  // exits on a watched CV means the notify side is absent, not slow.
  int64_t timeout_exits() const { return timeout_exits_; }
  int64_t notified_exits() const { return notified_exits_; }

  // Checkpointable: heap-owning members are name_ and waiters_; scalars (timeout, exit
  // counters) ride the raw byte image. See checkpoint.h.
  void CheckpointSave(CheckpointedObjectState* state) const override;
  void CheckpointTeardown() override;
  void CheckpointRestore(const CheckpointedObjectState& state) override;
  void* CheckpointStorage() override { return this; }
  size_t CheckpointStorageBytes() const override { return sizeof(Condition); }

 private:
  void RequireLockForSignal(const char* op) const;
  // Wakes (or defers) one validated waiter; returns false when the queue had none.
  bool SignalOne();

  MonitorLock& lock_;
  std::string name_;
  ObjectId id_;
  uint32_t name_sym_;  // `name_` interned in the tracer's symbol table
  Usec timeout_;
  int64_t timeout_exits_ = 0;
  int64_t notified_exits_ = 0;
  WaitQueue waiters_;
};

}  // namespace pcr

#endif  // SRC_PCR_CONDITION_H_
