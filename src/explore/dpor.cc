#include "src/explore/dpor.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/trace/event.h"
#include "src/trace/tracer.h"

namespace explore {

namespace {

// How an event participates in the commutativity relation.
enum class DepClass : uint8_t {
  kNeutral,   // thread-local or scheduling-only: never conflicts
  kKeyed,     // conflicts iff another thread touches the same (type-class, object) key
  kConflict,  // order-sensitive outright: ends the independent tail
};

DepClass Classify(trace::EventType type) {
  using trace::EventType;
  switch (type) {
    // Pure scheduling / thread-lifecycle records. Their relative order across threads is
    // either forced by synchronization (join follows exit) or observationally irrelevant
    // (which of two dying threads is reaped first); neither feeds the detector's lockset or
    // notify bookkeeping.
    case EventType::kThreadStart:
    case EventType::kThreadExit:
    case EventType::kThreadJoin:
    case EventType::kThreadDetach:
    case EventType::kSwitch:
    case EventType::kPreempt:
    case EventType::kYield:
    case EventType::kYieldButNotToMe:
    case EventType::kDirectedYield:
    case EventType::kSetPriority:
    case EventType::kForcedPreempt:
    case EventType::kRngSeed:
      return DepClass::kNeutral;
    // Object-keyed operations: commute exactly when their objects are disjoint.
    case EventType::kMlEnter:
    case EventType::kMlContend:
    case EventType::kMlExit:
    case EventType::kSharedRead:
    case EventType::kSharedWrite:
    case EventType::kUser:
      return DepClass::kKeyed;
    // Everything else is order-sensitive: condition-variable traffic drives the lost-notify /
    // timeout detectors, timers and sleeps tie behavior to virtual time, forks add threads
    // whose steps the witness tail cannot vouch for, faults and watchdog reports are
    // inherently schedule-coupled. New event kinds default here — conservative by design.
    default:
      return DepClass::kConflict;
  }
}

uint64_t DepKey(const trace::Event& e) {
  // Type-class tag in the top bits so a monitor and a shared cell with equal ids stay
  // distinct keys. Object ids are dense small integers, nowhere near 2^56.
  uint64_t tag;
  switch (e.type) {
    case trace::EventType::kSharedRead:
    case trace::EventType::kSharedWrite:
      tag = 1;
      break;
    case trace::EventType::kUser:
      tag = 2;
      break;
    default:
      tag = 0;  // monitor operations
      break;
  }
  return (tag << 56) ^ e.object;
}

}  // namespace

uint64_t IndependentTailStart(const trace::Tracer& tracer) {
  // Forward pass: the tail must contain no conflicting pair, so for every pair (p, i) of
  // same-key touches by different threads (and every outright-conflict event i) the tail can
  // start no earlier than p + 1 (respectively i + 1). Tracking only the *latest* prior touch
  // per key suffices: older touches give strictly weaker constraints.
  std::unordered_map<uint64_t, std::pair<uint64_t, trace::ThreadId>> last_touch;
  uint64_t start = 0;
  uint64_t index = 0;
  for (const trace::Event& e : tracer.view()) {
    switch (Classify(e.type)) {
      case DepClass::kNeutral:
        break;
      case DepClass::kConflict:
        start = index + 1;
        break;
      case DepClass::kKeyed: {
        auto [it, inserted] = last_touch.try_emplace(DepKey(e), index, e.thread);
        if (!inserted) {
          if (it->second.second != e.thread) {
            start = std::max(start, it->second.first + 1);
          }
          it->second = {index, e.thread};
        }
        break;
      }
    }
    ++index;
  }
  return start;
}

LeafVerdict ClassifyLeaf(uint64_t leaf_seed, const PerturbPolicy& policy,
                         const std::vector<uint64_t>& sorted_change_points,
                         const LeafWitness& witness) {
  SplitMix64 rng(leaf_seed);
  for (size_t i = 0; i < witness.suffix_len; ++i) {
    const ConsultRecord& c = witness.suffix[i];
    const auto answer = static_cast<uint8_t>(
        c.kind == kConsultForcePreempt
            ? DecidePreempt(policy, sorted_change_points, c.preempt_index, rng)
            : DecidePick(policy, c.count, rng));
    if (answer != c.answer) {
      // First divergence. Beyond it the simulation is meaningless (the candidate's own
      // consultation sequence departs from the log), but the classification only needs this
      // point: in the independent tail every continuation is findings-equivalent.
      return c.event_index >= witness.independent_tail_event ? LeafVerdict::kTailSplice
                                                             : LeafVerdict::kExecute;
    }
  }
  return LeafVerdict::kIdenticalPrune;
}

}  // namespace explore
