// Post-run race and invariant detection over a recorded trace.
//
// The runtime already emits an event for every scheduler-visible action (trace/event.h); this
// module replays that stream through a lockset + vector-clock analysis and reports the bug
// patterns the paper catalogues:
//
//   * Unprotected shared access (Section 5.5): an Eraser-style lockset over weakly-ordered
//     kSharedRead/kSharedWrite accesses, filtered by a fork/join/notify happens-before check so
//     deliberately sequenced lock-free code is not flagged.
//   * WAIT-without-loop candidates (Section 5.3): one BROADCAST wakes several waiters and two or
//     more of them leave the monitor without re-checking (re-WAITing) — with one condition
//     instance per wakeup, somebody proceeded on a stale predicate.
//   * Timeout-driven condition variables (Section 5.3): every completed WAIT on a CV ended by
//     timeout — "timeouts had been introduced to compensate for missing NOTIFYs (bugs) ... the
//     system becomes timeout driven: it apparently works correctly but slowly".
//   * Notifies that never wake anyone (missed-rendezvous candidates).
//
// All detectors are heuristics over observable behaviour — they name *candidates* with enough
// context (object ids, thread ids, event times) to judge, and the Explorer treats them as
// failures only where a scenario opts in.

#ifndef SRC_EXPLORE_DETECTOR_H_
#define SRC_EXPLORE_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/trace/tracer.h"

namespace explore {

enum class FindingKind : uint8_t {
  kUnprotectedSharedAccess,  // racing accesses to a weakmem cell
  kWaitNotInLoop,            // broadcast-woken waiters proceeded without rechecking
  kTimeoutDrivenCv,          // all waits on a CV completed by timeout
  kNotifyWithoutWaiter,      // all notifies on a waited-on CV woke nobody
};

std::string_view FindingKindName(FindingKind kind);

struct Finding {
  FindingKind kind;
  trace::ObjectId object = 0;   // cell / CV the finding is about
  trace::ThreadId thread_a = 0;
  trace::ThreadId thread_b = 0;
  trace::Usec time_us = 0;      // representative event time
  std::string detail;           // human-readable one-liner

  // Stable identity for dedup across schedules.
  bool SameBug(const Finding& other) const {
    return kind == other.kind && object == other.object;
  }
};

// Resumable form of AnalyzeTrace. The analysis is a strict left fold over the event stream, so
// feeding events [0, n) and then [n, end) through one analyzer yields exactly the findings of a
// single full-trace pass. The explorer exploits this the same way it reuses trace-hash prefixes:
// under prefix-grouped exploration it folds the shared prefix once per branch, then copies the
// analyzer per leaf and feeds only the suffix — O(suffix) analysis to match O(suffix) replay.
// Copying is a deep copy of the fold state (a few small vectors and maps). Finish() consumes the
// accumulated state; call it on a copy (or at most once, as the last call).
class TraceAnalyzer {
 public:
  TraceAnalyzer();
  TraceAnalyzer(const TraceAnalyzer& other);
  TraceAnalyzer& operator=(const TraceAnalyzer& other);
  TraceAnalyzer(TraceAnalyzer&&) noexcept;
  TraceAnalyzer& operator=(TraceAnalyzer&&) noexcept;
  ~TraceAnalyzer();

  void Feed(const trace::Event& e);
  std::vector<Finding> Finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

std::vector<Finding> AnalyzeTrace(const trace::Tracer& tracer);

// Multi-line human-readable report ("" when empty).
std::string RenderFindings(const std::vector<Finding>& findings);

// Coverage extraction for the fuzzing campaign (campaign.h): stable 64-bit keys naming which
// interleaving structures a trace exercised, independent of *when* they happened:
//
//   * monitor handoff edges — (monitor, previous owner -> next owner) per kMlEnter, the
//     lockset-style "who followed whom through this lock" relation;
//   * contention edges — (monitor, blocked thread, owner) per kMlContend;
//   * CV rendezvous edges — (cv, outcome) for waits ending by notify vs timeout, and
//     (cv, notifier, #woken>0) per notify/broadcast;
//   * shared-cell access shapes — (cell, thread, read/write, #locks held bucket);
//   * fault firings — (site, magnitude) per kFaultInjected;
//   * watchdog report kinds — (kind) per kWatchdogReport (src/fault/watchdog.cc).
//
// Keys are salted with `salt` (the campaign uses a per-scenario salt so identical object ids
// in different scenarios never collide) and class-tagged so no two classes share a key.
// Object/thread ids are per-Runtime and deterministic, so the same behaviour always produces
// the same keys. Returned sorted and deduplicated.
std::vector<uint64_t> CollectTraceCoverage(const trace::Tracer& tracer, uint64_t salt);

}  // namespace explore

#endif  // SRC_EXPLORE_DETECTOR_H_
