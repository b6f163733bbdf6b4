// Interval reconstruction: fold the flat event log into per-thread state timelines.
//
// The paper's methodology is built on reading event histories as *timelines* — "the microsecond
// spacing between thread events" (Section 1), the 100 ms histories of Section 7 — but a flat
// dump makes the reader reconstruct thread states in their head. This pass does it once: every
// thread's life becomes a chronological sequence of intervals (ready / running /
// blocked-on-monitor / cv-waiting / sleeping), monitors get hold and contention spans, CVs get
// wait-latency spans, and per-thread residency totals fall out for free. The Chrome exporter
// (export_chrome.h) serializes exactly these intervals.
//
// Fidelity note: the runtime does not emit an event at every state change (a thread woken from
// a monitor queue becomes ready silently, for example), so some edges are resolved to the next
// observable event — a blocked interval ends at the wakeup evidence (timer-fire) when there is
// any, otherwise at the dispatch that proves the thread ran again. All residency totals are
// exact to within those event boundaries.

#ifndef SRC_TRACE_INTERVALS_H_
#define SRC_TRACE_INTERVALS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/event.h"
#include "src/trace/tracer.h"

namespace trace {

enum class ThreadPhase : uint8_t {
  kReady = 0,          // runnable, waiting for a processor
  kRunning,            // dispatched on a virtual processor
  kBlockedMonitor,     // blocked entering a monitor (kMlContend ... dispatch)
  kCvWaiting,          // in a condition-variable WAIT
  kSleeping,           // in a timed Sleep
};
inline constexpr int kNumThreadPhases = 5;

std::string_view ThreadPhaseName(ThreadPhase phase);

struct ThreadInterval {
  ThreadPhase phase = ThreadPhase::kReady;
  Usec begin = 0;
  Usec end = 0;
  uint16_t processor = 0;  // meaningful only for kRunning
};

// One thread's full reconstructed timeline.
struct ThreadTimeline {
  ThreadId id = 0;
  uint32_t name_sym = 0;                        // interned name (tracer.symbols())
  Usec born = 0;                                // fork (or first sighting) time
  Usec died = -1;                               // exit time; -1 = alive at trace end
  std::vector<ThreadInterval> intervals;        // chronological, non-overlapping
  std::array<Usec, kNumThreadPhases> residency{};  // total us per phase

  Usec ResidencyIn(ThreadPhase phase) const {
    return residency[static_cast<size_t>(phase)];
  }
};

// A span during which one thread held a monitor lock.
struct MonitorHold {
  ObjectId monitor = 0;
  uint32_t monitor_sym = 0;
  ThreadId holder = 0;
  Usec begin = 0;
  Usec end = 0;
};

// A span during which one thread was blocked entering a monitor. `holder` is the owner at the
// moment the waiter blocked; priorities are captured at that same moment, which is what makes
// these spans the raw material of the Section 6.2 priority-inversion analysis.
struct MonitorWait {
  ObjectId monitor = 0;
  uint32_t monitor_sym = 0;
  ThreadId waiter = 0;
  ThreadId holder = 0;
  int waiter_priority = 0;
  int holder_priority = 0;  // 0 = unknown (holder never acted in this trace)
  Usec begin = 0;
  Usec end = 0;
};

// One completed (or trace-end-truncated) condition-variable WAIT.
struct CvWait {
  ObjectId cv = 0;
  uint32_t cv_sym = 0;
  ThreadId waiter = 0;
  bool by_timeout = false;
  bool completed = false;  // false: still waiting when the trace ended
  Usec begin = 0;
  Usec end = 0;
};

struct Timeline {
  std::vector<ThreadTimeline> threads;  // ordered by thread id
  std::vector<MonitorHold> monitor_holds;
  std::vector<MonitorWait> monitor_waits;
  std::vector<CvWait> cv_waits;
  Usec begin = 0;
  Usec end = 0;

  const ThreadTimeline* Find(ThreadId id) const;
};

// Thrown by BuildTimeline when the event stream violates the invariant the tracer claims
// ("virtual time is monotone, so the buffer is sorted by construction", tracer.h): an event
// whose time is earlier than a previous event on the same processor. The offending event's
// buffer index makes the corruption diagnosable instead of silently producing negative-length
// intervals.
class TimelineError : public std::runtime_error {
 public:
  TimelineError(const std::string& message, size_t event_index)
      : std::runtime_error(message), event_index_(event_index) {}
  size_t event_index() const { return event_index_; }

 private:
  size_t event_index_;
};

// Incremental timeline fold: feed events one at a time, get completed spans as they close.
//
// Two modes share one fold:
//   * accumulate (no observer): Feed everything, then Finish() returns the full Timeline —
//     this is what BuildTimeline does.
//   * observer: completed spans are delivered through the SpanObserver as each one closes and
//     nothing is accumulated, so memory stays O(live threads + monitors) no matter how long
//     the trace is. The Chrome exporter (export_chrome.h) is built on this: it writes each
//     span as it closes, which fixes the line order of its file.
//
// Open state (a thread's current phase, in-flight monitor/CV waits, current lock holders)
// lives inside the builder either way; Finish() closes it at the last event's time, exactly
// like the end-of-trace closure the batch fold always did. Spans are observed in *close*
// order; the accumulated Timeline keeps the historical orders (waits in open order, holds
// sorted by begin) so batch consumers see no change.
class TimelineBuilder {
 public:
  // Completed-span callbacks. Default implementations ignore the span.
  class SpanObserver {
   public:
    virtual ~SpanObserver() = default;
    // A thread finished one state interval (interval.processor is set for kRunning).
    virtual void OnInterval(ThreadId thread, const ThreadInterval& interval);
    virtual void OnMonitorHold(const MonitorHold& hold);
    virtual void OnMonitorWait(const MonitorWait& wait);
    virtual void OnCvWait(const CvWait& wait);
  };

  // With an observer the builder streams spans and accumulates nothing; without one it
  // accumulates a Timeline for Finish() to return.
  explicit TimelineBuilder(SpanObserver* observer = nullptr);
  ~TimelineBuilder();
  TimelineBuilder(const TimelineBuilder&) = delete;
  TimelineBuilder& operator=(const TimelineBuilder&) = delete;

  // Folds one event. Throws TimelineError on non-monotone per-processor times (the index in
  // the error counts events fed to this builder, starting at 0).
  void Feed(const Event& event);

  // Closes everything still open at the last fed event's time, delivers the final spans, and
  // returns the accumulated Timeline (empty in observer mode). Call at most once.
  Timeline Finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// Folds the tracer's event log into a Timeline. Throws TimelineError on non-monotone
// per-processor event times.
Timeline BuildTimeline(const Tracer& tracer);

// Monitor-wait spans that are priority inversions: the blocked waiter outranks the thread
// holding the lock ("a long-running, low-priority thread was starving a high-priority thread by
// holding a lock", Section 6.2 in spirit). Sorted by begin time.
std::vector<MonitorWait> FindPriorityInversions(const Timeline& timeline);

}  // namespace trace

#endif  // SRC_TRACE_INTERVALS_H_
