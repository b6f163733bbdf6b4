// External event delivery at microsecond resolution.
//
// The paper's systems receive keyboard/mouse/network input through Unix I/O, which PCR turns
// into thread wakeups that are *not* clocked by the 50 ms scheduler tick: device events wake
// their handler thread immediately and can preempt lower-priority work (this is what makes the
// Notifier an "interrupt handler" thread, Section 4.1). An InterruptSource models one such
// device: payloads are scheduled for future virtual times and a handler thread Awaits them.

#ifndef SRC_PCR_INTERRUPT_H_
#define SRC_PCR_INTERRUPT_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/pcr/ids.h"
#include "src/pcr/scheduler.h"

namespace pcr {

class InterruptSource {
 public:
  InterruptSource(Scheduler& scheduler, std::string name);

  InterruptSource(const InterruptSource&) = delete;
  InterruptSource& operator=(const InterruptSource&) = delete;

  const std::string& name() const { return name_; }
  ObjectId id() const { return id_; }

  // Schedules `payload` for delivery at absolute virtual time `time` (clamped to now).
  // Callable from the host (pre-scripted workloads) or from fibers (feedback loops).
  void PostAt(Usec time, uint64_t payload);

  // Blocks the calling thread until a payload is available and returns it. Wakeups are
  // immediate (device semantics), not tick-granular.
  uint64_t Await();

  // As Await, but gives up after `timeout` (tick-granular, like all timeouts). Returns false on
  // timeout.
  bool AwaitFor(Usec timeout, uint64_t* payload);

  size_t pending() const { return queue_.size(); }

  // Called by the scheduler when a posted payload's time arrives.
  void DeliverFromScheduler(uint64_t payload);

 private:
  Scheduler& scheduler_;
  std::string name_;
  ObjectId id_;
  uint32_t name_sym_;  // `name_` interned in the tracer's symbol table
  std::deque<uint64_t> queue_;
  WaitQueue waiters_;
};

}  // namespace pcr

#endif  // SRC_PCR_INTERRUPT_H_
