#include "src/pcr/interrupt.h"

#include <algorithm>

#include "src/trace/event.h"

namespace pcr {

InterruptSource::InterruptSource(Scheduler& scheduler, std::string name)
    : scheduler_(scheduler), name_(std::move(name)), id_(scheduler.NextObjectId()),
      name_sym_(scheduler.InternName(name_)) {}

void InterruptSource::PostAt(Usec time, uint64_t payload) {
  scheduler_.ScheduleInterrupt(time, this, payload);
}

void InterruptSource::DeliverFromScheduler(uint64_t payload) {
  queue_.push_back(payload);
  scheduler_.Emit(trace::EventType::kInterrupt, id_, 0, name_sym_);
  ThreadId waiter = scheduler_.PopValidWaiter(waiters_);
  if (waiter != kNoThread) {
    scheduler_.WakeThread(waiter, /*from_timer=*/false);
  }
}

uint64_t InterruptSource::Await() {
  while (queue_.empty()) {
    scheduler_.EnqueueCurrentWaiter(waiters_);
    scheduler_.BlockCurrent(BlockReason::kInterrupt, this, -1);
  }
  uint64_t payload = queue_.front();
  queue_.pop_front();
  scheduler_.Compute(scheduler_.config().costs.interrupt_dispatch);
  return payload;
}

bool InterruptSource::AwaitFor(Usec timeout, uint64_t* payload) {
  Usec deadline = scheduler_.GridDeadline(timeout);
  while (queue_.empty()) {
    scheduler_.EnqueueCurrentWaiter(waiters_);
    bool timed_out = scheduler_.BlockCurrent(BlockReason::kInterrupt, this, deadline);
    if (timed_out && queue_.empty()) {
      return false;
    }
  }
  *payload = queue_.front();
  queue_.pop_front();
  scheduler_.Compute(scheduler_.config().costs.interrupt_dispatch);
  return true;
}

}  // namespace pcr
