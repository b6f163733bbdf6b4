// Concrete SchedulePerturbers used by the Explorer.
//
// RecordingPerturber makes randomized decisions and records every one of them, so the schedule
// it produced can be re-executed verbatim by a ReplayPerturber. The randomization combines two
// strategies from the systematic-concurrency-testing literature:
//   * PCT-style change points: a small number of decision indices, chosen up front, at which a
//     forced preemption *will* happen — few, targeted perturbations find ordering bugs with
//     provable probability (cf. "Competitive Parallelism: Getting Your Priorities Right",
//     PAPERS.md, for the priority-perturbation lineage).
//   * i.i.d. noise: every preemption point fires with a small probability, and every ready-queue
//     tie-break picks a random candidate with some probability — a broad fuzz over round-robin
//     accidents.

#ifndef SRC_EXPLORE_PERTURBERS_H_
#define SRC_EXPLORE_PERTURBERS_H_

#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "src/explore/repro.h"
#include "src/pcr/perturber.h"

namespace trace {
class Tracer;
}  // namespace trace

namespace explore {

// Derives a decision-stream seed from a group seed plus segment coordinates (splitmix64-style
// finalizer). Used by the explorer's prefix-grouped schedules: every branch/leaf reseeds the
// recorder at a fixed consultation index, so schedules in one group share a decision prefix
// byte-for-byte and diverge only at the reseed boundary.
inline uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a ^ (0x9e3779b97f4a7c15ull * (b + 1)) ^ (0xbf58476d1ce4e5b9ull * (c + 1));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Decision-stream generator. The recorder reseeds once per explored schedule (and once per
// segment under prefix-grouped exploration), and each stream is only a handful of draws long —
// mt19937_64 pays a ~2.5KB state expansion per seed, which dominated the sweep profile.
// splitmix64 seeds in one store, draws in three multiplies, and passes through
// std::uniform_*_distribution like any URBG. Decision *streams* change with the engine, but
// every decision is recorded, so repro strings and replays are engine-independent.
class SplitMix64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  SplitMix64() = default;
  explicit SplitMix64(uint64_t s) : state_(s) {}
  void seed(uint64_t s) { state_ = s; }

  result_type operator()() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_ = 0;
};

// Decisions past this count stop being recorded and fall back to defaults (no preempt, FIFO
// tie-break). Replay stays faithful because the replayer answers the same defaults past the end
// of its stream.
inline constexpr size_t kMaxRecordedDecisions = 1 << 20;

struct PerturbPolicy {
  uint64_t seed = 0;                      // perturber RNG seed (distinct from the runtime seed)
  double preempt_probability = 0.0;       // i.i.d. chance a ForcePreempt consultation fires
  double shuffle_probability = 0.0;       // i.i.d. chance a tie-break picks a random candidate
  std::vector<uint64_t> change_points;    // ForcePreempt consultation indices that always fire
};

// The recorder's decision rule, draw for draw: RecordingPerturber answers its consultations
// with these, and ClassifyLeaf (dpor.h) pre-simulates a candidate leaf's stream with them, so
// the two cannot drift apart. DecidePreempt answers the ForcePreempt consultation with global
// index `preempt_index` (`sorted_change_points` is the policy's change points, sorted);
// DecidePick answers a tie-break among `count` candidates.
bool DecidePreempt(const PerturbPolicy& policy, const std::vector<uint64_t>& sorted_change_points,
                   uint64_t preempt_index, SplitMix64& rng);
size_t DecidePick(const PerturbPolicy& policy, size_t count, SplitMix64& rng);

// One consultation as the recorder saw it, with enough context to re-derive the decision any
// *other* segment seed would have produced at the same point (dpor.h pre-simulates candidate
// leaf seeds over this log without executing them). `event_index` anchors the consultation in
// the trace so divergences can be compared against the independent-tail frontier.
struct ConsultRecord {
  uint64_t event_index = 0;    // tracer size when the consultation was answered
  uint64_t preempt_index = 0;  // ForcePreempt only: global preempt-consultation index
  uint32_t count = 0;          // PickNext only: number of tied candidates offered
  uint8_t kind = 0;            // 0 = ForcePreempt, 1 = PickNext
  uint8_t answer = 0;          // the recorded decision
};
inline constexpr uint8_t kConsultForcePreempt = 0;
inline constexpr uint8_t kConsultPickNext = 1;

class RecordingPerturber : public pcr::SchedulePerturber {
 public:
  explicit RecordingPerturber(const PerturbPolicy& policy);

  bool ForcePreempt(pcr::PreemptPoint point, pcr::ThreadId current) override;
  size_t PickNext(const pcr::ThreadId* candidates, size_t count) override;

  const std::vector<Decision>& decisions() const { return decisions_; }
  // Total ForcePreempt consultations seen — the "horizon" the explorer uses to place the next
  // schedule's change points.
  uint64_t preempt_points_seen() const { return preempt_points_seen_; }
  // Total consultations of either kind — the decision-index space the explorer's segment
  // boundaries (d1/d2) live in.
  uint64_t total_consults() const { return consults_; }

  // Segment boundaries for prefix-grouped exploration: just before answering consultation
  // depths[k] the recorder fires the segment hook with level k+1, exactly once each and in
  // order. The hook typically reseeds the RNG (ReseedSegment) and may pause the simulation to
  // take a checkpoint. Boundaries must be strictly increasing; an empty vector (the default)
  // never fires.
  static constexpr uint64_t kNoBoundary = ~0ull;
  void SetSegmentBoundaries(std::vector<uint64_t> depths) { depths_ = std::move(depths); }
  // The hook is held by pointer to a host-owned std::function: under checkpointed exploration
  // the recorder is copy-assigned (restored) while a suspended fiber frame still sits inside the
  // hook target's operator(), so the target itself must never be copied or destroyed here.
  void set_segment_hook(const std::function<void(int)>* hook) { segment_hook_ = hook; }
  void ReseedSegment(uint64_t seed) { rng_.seed(seed); }

  // Consultation logging for the dpor oracle: with a tracer attached, every recorded decision
  // also appends a ConsultRecord (same cap as the decision stream). The log is plain member
  // state, so checkpoint restores rewind it along with the decisions — a leaf run's log is
  // byte-identical between checkpointed and from-zero execution.
  void EnableConsultLog(const trace::Tracer* tracer) { log_tracer_ = tracer; }
  const std::vector<ConsultRecord>& consult_log() const { return consult_log_; }

 private:
  void Record(Decision d);
  // Must be the first statement of both consultation callbacks, and must touch no members after
  // the hook returns: a checkpoint restore can rewind this object while the frame is suspended
  // inside the hook, and the resumed frame must see post-restore state only.
  void AtConsult();

  PerturbPolicy policy_;
  SplitMix64 rng_;
  uint64_t preempt_points_seen_ = 0;
  uint64_t consults_ = 0;
  std::vector<uint64_t> depths_;  // segment boundaries, strictly increasing
  size_t next_level_ = 1;
  const std::function<void(int)>* segment_hook_ = nullptr;
  const trace::Tracer* log_tracer_ = nullptr;
  std::vector<ConsultRecord> consult_log_;
  std::vector<Decision> decisions_;
};

// Replays a recorded decision stream verbatim; past the end (or on any out-of-range value) it
// answers the defaults, which is exactly what the recorder did past kMaxRecordedDecisions.
class ReplayPerturber : public pcr::SchedulePerturber {
 public:
  explicit ReplayPerturber(std::vector<Decision> decisions);

  bool ForcePreempt(pcr::PreemptPoint point, pcr::ThreadId current) override;
  size_t PickNext(const pcr::ThreadId* candidates, size_t count) override;

  // Decisions actually consumed; on a faithful replay of a terminating run this equals the
  // recorded stream (trailing defaults may be truncated).
  const std::vector<Decision>& consumed() const { return consumed_; }

 private:
  Decision Next();

  std::vector<Decision> decisions_;
  std::vector<Decision> consumed_;
  size_t cursor_ = 0;
};

}  // namespace explore

#endif  // SRC_EXPLORE_PERTURBERS_H_
