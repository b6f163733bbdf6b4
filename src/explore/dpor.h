// DPOR-style redundancy elimination for prefix-grouped exploration (sleep sets over the
// segment-reseed tree).
//
// Classic dynamic partial-order reduction observes that two schedules differing only in the
// order of *commuting* operations are observationally equivalent, so one execution covers
// both. The explorer's leaf schedules are perfect candidates: all leaves of one parent share
// the trace prefix up to the last segment boundary and differ only in the decision stream a
// fresh segment seed produces past it. Because the recorder's randomized decisions are a pure
// function of (segment seed, consultation sequence), a candidate leaf's decisions can be
// *pre-simulated* over the executed witness leaf's consultation log — no fiber suffix runs —
// and classified:
//
//   * kIdenticalPrune — every decision matches the witness's: the candidate IS the witness
//     schedule (the sleep-set "already explored" case). Copy the outcome.
//   * kTailSplice — the first divergent decision lies at or past the witness's independent
//     tail (every event from there on either touches objects no other thread touches or is a
//     thread-local scheduling event), so any interleaving of the remaining steps reaches the
//     same per-thread results: the drain-tail generalization. Requires a passing witness (no
//     findings, no failures) — then the candidate provably passes too, and its outcome is
//     findings-equivalent by construction. Copy the outcome.
//   * kExecute — the first divergent decision conflicts (is not in the sleep set): run it.
//
// The classification is a pure function of mode-invariant inputs (witness trace + consult log
// + leaf seed + policy), so checkpointed and from-zero execution prune exactly the same cells
// — the equivalence suite holds with or without either mechanism. See docs/INTERNALS.md
// "Checkpoint-and-branch exploration" for the invariants.

#ifndef SRC_EXPLORE_DPOR_H_
#define SRC_EXPLORE_DPOR_H_

#include <cstdint>
#include <vector>

#include "src/explore/perturbers.h"

namespace trace {
class Tracer;
}  // namespace trace

namespace explore {

enum class LeafVerdict : uint8_t {
  kExecute,         // first divergent decision conflicts: the schedule must run
  kIdenticalPrune,  // decision stream identical to the witness's: same schedule
  kTailSplice,      // diverges only inside the independent tail: findings-equivalent
};

// First event index of the maximal independent tail: every event in [result, size) either
// carries no cross-thread dependency (thread-lifecycle, yields, switches, forced preempts) or
// touches a monitor/shared-cell/user object that no *other* thread touches within the tail.
// Order-sensitive event kinds (condition-variable traffic, timers, sleeps, interrupts, faults,
// forks, watchdog reports) conservatively end the tail outright. Returns size when the last
// event already conflicts (empty tail).
uint64_t IndependentTailStart(const trace::Tracer& tracer);

// The executed leaf a parent node uses as its pruning witness.
struct LeafWitness {
  const ConsultRecord* suffix = nullptr;  // consult records from the leaf boundary onward
  size_t suffix_len = 0;
  uint64_t independent_tail_event = 0;    // IndependentTailStart of the witness trace
};

// Pre-simulates the decision stream that segment seed `leaf_seed` would produce over the
// witness's consultation suffix and classifies the candidate leaf. `sorted_change_points` is
// the group's PCT change-point set, pre-sorted (the recorder sorts its own copy; the
// simulation must binary-search the same order). Probabilities are read from `policy`. The
// simulation draws from the recorder's engine through the recorder's own decision rule
// (DecidePreempt and DecidePick, perturbers.h), so kIdenticalPrune is exact, not heuristic.
LeafVerdict ClassifyLeaf(uint64_t leaf_seed, const PerturbPolicy& policy,
                         const std::vector<uint64_t>& sorted_change_points,
                         const LeafWitness& witness);

}  // namespace explore

#endif  // SRC_EXPLORE_DPOR_H_
