// Schedule exploration: run one test body under many perturbed-but-deterministic schedules,
// analyze every trace, and hand back a replayable repro string for each failure.
//
// The paper's bug catalogue (Sections 5.3-5.5) is full of failures that only appear under rare
// interleavings: a WAIT outside a loop is fine until a barging thread poaches the predicate, a
// missing NOTIFY hides behind its timeout, an unprotected load is benign until a store lands
// between check and use. The runtime is deterministic given (Config, workload), so a single
// extra input — the decision stream of a SchedulePerturber — is enough to both explore many
// schedules and replay any one of them exactly.
//
//   explore::Explorer ex(explore::ExploreOptions{.budget = 200});
//   explore::ExploreResult r = ex.Explore(body);
//   if (!r.failures.empty()) {
//     // r.failures[0].repro is e.g. "pcr1:-:7:0r12x10r3x2"; feed it to tools/pcrcheck --replay
//     explore::ScheduleOutcome again = ex.Replay(r.failures[0].repro, body);
//     assert(again.trace_hash == r.failures[0].trace_hash);
//   }

#ifndef SRC_EXPLORE_EXPLORER_H_
#define SRC_EXPLORE_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/explore/detector.h"
#include "src/explore/dpor.h"
#include "src/explore/hash.h"
#include "src/explore/perturbers.h"
#include "src/explore/repro.h"
#include "src/fault/fault.h"
#include "src/pcr/runtime.h"
#include "src/pcr/stack.h"
#include "src/trace/event.h"

namespace explore {

// Collects assertion results from inside the test body. Fiber code must not throw across the
// scheduler, so checks record rather than abort; the run keeps going and reports everything.
class TestContext {
 public:
  // Records a failure (and returns false) when `ok` is false.
  bool Check(bool ok, std::string message) {
    if (!ok) {
      failures_.push_back(std::move(message));
    }
    return ok;
  }
  void Fail(std::string message) { failures_.push_back(std::move(message)); }

  bool failed() const { return !failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// A test body: set up threads, run virtual time, make TestContext checks. Must leave the
// runtime quiescent or call rt.Shutdown() before returning. Runs many times — keep all state
// local so every invocation starts fresh.
using TestBody = std::function<void(pcr::Runtime& rt, TestContext& ctx)>;

struct ExploreOptions {
  std::string scenario_name = "-";  // embedded in repro strings so they are self-describing
  int budget = 100;                 // schedules to run (schedule 0 is always unperturbed)
  uint64_t seed = 1;                // master seed; all per-schedule seeds derive from it
  bool fail_on_findings = true;     // detector findings count as failures
  pcr::Config base_config;          // per-run Config (each group redraws its seed)
  size_t max_failures = 8;          // stop exploring after this many distinct failures
  bool minimize = true;             // shrink failing decision streams before reporting
  // Base fault plan injected into every schedule (disabled by default). Each perturbed schedule
  // redraws the plan's probabilistic seed from the master RNG, so one Explore call searches
  // fault x schedule space; the baseline keeps the plan verbatim.
  fault::Plan fault_plan;
  // OS worker threads schedules are fanned across (0 = hardware concurrency, 1 = serial).
  // The result is byte-identical for every value: schedules execute on whichever worker is
  // free, but they are merged in schedule-index order.
  int workers = 0;
  // Populate ScheduleOutcome::coverage after each run (campaign.h's feedback signal): prefix
  // trace hashes every 64 events plus the interleaving/fault/watchdog edge keys (TraceFold).
  // Off by default — plain exploration never pays for it.
  bool collect_coverage = false;
  uint64_t coverage_salt = 0;  // mixed into every key; the campaign salts per scenario
  // Execute schedule groups by checkpoint-and-branch: snapshot the simulation at each group's
  // divergence points and replay only the suffix per schedule (O(suffix) instead of O(horizon)).
  // Results are byte-identical either way; this only changes how they are computed. Ignored
  // (treated as false) in builds where pcr::Checkpoint::Supported() is false — ucontext fibers
  // or sanitizers. Turn off for bodies that keep non-checkpointable state outside the runtime
  // (see BugScenario::checkpoint_safe). A checkpointed run's Shutdown discards the body's live
  // threads without unwinding them, so their frames may own heap only through registered
  // Checkpointables.
  bool checkpoint = true;
  // DPOR-style leaf pruning (dpor.h): pre-simulate each candidate leaf's decision stream over
  // its executed sibling's consultation log and skip leaves that are provably the same
  // schedule (sleep set) or diverge only inside the independent tail (drain-tail elision).
  // Pruning only ever stands *passing* witnesses in for leaves, so reported failures —
  // findings, hashes, repros — are byte-identical with this off; only distinct_schedules can
  // differ (pruned leaves contribute their witness's hash instead of executing). Applies
  // identically to checkpointed and from-zero execution; disabled automatically for
  // fault-plan sweeps (injector state is interleaving-sensitive).
  bool dpor = true;
};

// Everything known about one executed schedule.
struct ScheduleOutcome {
  int schedule_index = -1;
  bool failed = false;
  std::vector<std::string> failures;  // TestContext messages (+ rendered findings if opted in)
  std::vector<Finding> findings;      // detector output, always populated
  uint64_t trace_hash = 0;
  std::string repro;                  // replayable repro string for this exact schedule
  uint64_t preempt_points = 0;        // ForcePreempt consultations seen (the PCT horizon)
  uint64_t total_decisions = 0;       // consultations of either kind (the d1/d2 index space)
  std::vector<fault::ScriptedFault> fired_faults;  // faults that fired, in firing order
  // Sorted, deduplicated coverage keys (only with ExploreOptions::collect_coverage): prefix
  // trace hashes + TraceFold's edge keys. The campaign unions these per run.
  std::vector<uint64_t> coverage;
};

// Self-profiling for one Explore call: where the wall time went, and how much of the per-run
// cost is the race detector versus the runtime itself. Phase times are wall clock; run_sec and
// detector_sec are summed across workers, so on an N-worker pool they can exceed total_sec.
// Each worker adds the run counters to its WorkerArena's profile; Explore sums the arenas.
struct ExploreProfile {
  double total_sec = 0;
  double baseline_sec = 0;   // schedule 0 (serial, also sets the PCT horizon)
  double sweep_sec = 0;      // the parallel schedule fan-out
  double minimize_sec = 0;   // shrinking failing decision streams
  double run_sec = 0;        // summed: body execution + runtime shutdown, all schedules
  double detector_sec = 0;   // summed: the trace fold (detector, hash, coverage) of every run
  double schedules_per_sec = 0;
  // Runtime counters summed across every schedule the Explore call executed (baseline, sweep,
  // minimization replays). stack_pool_hits depends on which worker ran which schedule, so it is
  // informational only — never part of result comparison.
  int64_t fiber_switches = 0;
  int64_t stack_acquires = 0;
  int64_t stack_pool_hits = 0;
  // Checkpoint-and-branch counters (all zero with ExploreOptions::checkpoint off or
  // unsupported). pruned_schedules counts schedules an already-executed group member stood in
  // for because their state fingerprints matched at the divergence point — they are included
  // in schedules_run but cost no execution.
  int64_t checkpoint_saves = 0;
  int64_t checkpoint_resumes = 0;
  int64_t checkpoint_bytes = 0;
  int64_t pruned_schedules = 0;
  // DPOR counters (subsets of pruned_schedules; zero with ExploreOptions::dpor off):
  // dpor_pruned counts leaves whose pre-simulated decision stream matched the witness's
  // exactly, drain_spliced counts leaves whose first divergence fell inside the witness's
  // independent tail.
  int64_t dpor_pruned = 0;
  int64_t drain_spliced = 0;
  // Adaptive segment-boundary placement: the no-jitter target consultation indices chosen
  // from the baseline's decision density (boundary_d3 is zero for two-level geometries).
  uint64_t boundary_d1 = 0;
  uint64_t boundary_d2 = 0;
  uint64_t boundary_d3 = 0;
};

struct ExploreResult {
  int schedules_run = 0;
  int distinct_schedules = 0;              // distinct trace hashes seen
  std::vector<ScheduleOutcome> failures;   // one entry per distinct failing bug, minimized
  ScheduleOutcome baseline;                // schedule 0 (unperturbed)
  ExploreProfile profile;
};

// What one pool worker carries from run to run: warm capacity and its own profile counters.
// The capacity is guard-paged stacks, the trace event buffer and the trace folds, the dominant
// per-run allocations. Explore keeps one arena per pool worker for the call; the campaign keeps
// one per pool worker for its lifetime. Only *capacity* is recycled: a recycled stack still
// holds its last user's bytes, but no defined behaviour reads stack memory before writing it,
// and every fold is reset or assigned over before it is fed, so a warm arena and a fresh one
// produce byte-identical outcomes — which is what keeps results independent of worker count.
// The symbol table is deliberately not here: interning order differs per schedule, so reuse
// would leak state. Used by one OS thread at a time, so workers share no counter: each run adds
// its run time, detector time, substrate, checkpoint and pruning counts to its own arena's
// profile, and Explore sums the arenas after the sweep. The alignment keeps two workers' arenas
// off one cache line.
struct alignas(64) WorkerArena {
  pcr::StackPool stacks;
  trace::SegmentArena trace_buffer;
  // The fold that finishes each run (FillOutcome), and the checkpoint cursor's folds: one per
  // tree level, the folds of the nodes it stands in and of the run paused below them.
  TraceFold fold;
  std::vector<TraceFold> node_folds;
  ExploreProfile profile;
};

class Explorer {
 public:
  explicit Explorer(ExploreOptions options = {});

  // Runs up to options.budget schedules. Deterministic: same options + same body => same result.
  ExploreResult Explore(const TestBody& body) const;

  // Re-executes the schedule `repro` describes (its scenario field is ignored here; the
  // outcome's repro names options().scenario_name). With `capture` non-null, the replayed run's
  // full event stream and symbol table are copied into it (the tracer's prior events are kept;
  // its symbol table is replaced) — the hook pcrcheck uses to export failing schedules. With
  // `arena` non-null the run draws its stacks and trace buffer from it (a fresh local arena
  // otherwise); the outcome is the same either way. Safe to call concurrently on distinct
  // arenas.
  ScheduleOutcome Replay(const Repro& repro, const TestBody& body,
                         trace::Tracer* capture = nullptr, WorkerArena* arena = nullptr) const;
  // The same from a repro string: Repro::Decode, or pcr::UsageError when it is malformed.
  ScheduleOutcome Replay(const std::string& repro, const TestBody& body,
                         trace::Tracer* capture = nullptr, WorkerArena* arena = nullptr) const;

  // Prefix-truncates and zeroes decisions (and shrinks fault plans to the fired script) while
  // the same bug keeps reproducing. Public so the campaign can minimize crashing corpus
  // entries with the exact path pcrcheck failures already use; deterministic (bounded replay
  // budget, no randomness). `arena` as for Replay.
  ScheduleOutcome Minimize(const ScheduleOutcome& outcome, const TestBody& body,
                           WorkerArena* arena = nullptr) const;

  const ExploreOptions& options() const { return options_; }

 private:
  // One prefix-grouped work unit: up to prod(fanout) consecutive schedules sharing the
  // segment-1 decision prefix (the policy's seed q0 and change points). The group is a tree:
  // crossing consultation depths[k] fires segment level k+1, and a node at level l has
  // fanout[l-1] children. A level-1 child c reseeds to MixSeed(q0, 1, c); a level-l>=2 child
  // c reseeds to MixSeed(q0 ^ F, l, c), where F is the trace-prefix fingerprint at the
  // boundary — so equal fingerprints provably yield identical continuations, which is what
  // makes state-hash pruning exact, not heuristic. A cell is one schedule: the flat index of
  // coordinates (c0, .., cL-1) is first_schedule + sum(ck * stride_k) in row-major order;
  // cells past the overall budget are skipped (members counts the in-budget ones).
  struct GroupPlan {
    int first_schedule = 1;
    std::vector<int> fanout;              // children per tree level (last level = leaves)
    std::vector<uint64_t> depths;         // divergence consultation indices, strictly increasing
    int members = 1;
    uint64_t runtime_seed = 1;
    PerturbPolicy policy;                 // segment-1 stream; policy.seed is q0
    bool dpor = false;                    // leaf-level sleep-set pruning for this group
    fault::Plan fault_plan;
  };

  // One group's cells as the merge in Explore reads them: every cell's trace hash in flat order,
  // and the outcomes of the executed cells that failed, in the same order, each with its repro
  // (the merge and Minimize read failing repros only). Any other cell is its hash alone. A
  // pruned cell — state-hash dedup, a DPOR verdict or a collapsed subtree stood in for it —
  // takes its source's hash; the source is a lower-indexed cell of the same group, so the merge
  // meets it first, the copy can never be a new distinct failure, and its hash is already
  // counted.
  struct GroupCells {
    std::vector<uint64_t> hashes;
    std::vector<ScheduleOutcome> failures;
  };

  class Harness;
  class GroupCursor;
  class CheckpointCursor;
  class FromZeroCursor;

  // One run from zero: it replays `replay`, or with `replay` null records the baseline (the
  // options' seed and fault plan, no perturbation). The outcome carries its repro.
  ScheduleOutcome RunPlan(const Repro* replay, int schedule_index, const TestBody& body,
                          WorkerArena& arena, trace::Tracer* capture = nullptr,
                          std::vector<ConsultRecord>* consult_log = nullptr) const;
  // Fills `cells` for one group. It walks the group with the checkpoint cursor where
  // checkpointing is on and supported. A pause with an exception in flight (a fiber suspended
  // mid-unwind, which no Checkpoint can capture) abandons that walk, and the group is walked
  // again with the from-zero cursor. Both walks give byte-identical cells and pruning counts.
  void RunGroup(const GroupPlan& group, const TestBody& body, GroupCells* cells,
                WorkerArena& arena) const;
  // The one walk over a group's tree, whichever cursor reaches the runs; every pruning rule
  // lives here. It starts `cells` afresh, and the pruning counts reach `profile` only when the
  // walk completes.
  static void WalkGroup(const GroupPlan& group, GroupCursor& cursor, GroupCells* cells,
                        ExploreProfile& profile);
  // Shared post-run analysis: one TraceFold pass for detector, trace hash and coverage, then
  // the failures; the caller adds the repro (its decisions with trailing defaults trimmed)
  // where one is read. The fold is the arena's, reset for the run, or with `resume`
  // (checkpointed groups fold the shared prefix once) assigned from that fold and fed the
  // suffix only — FNV continuation and the detector's left fold are value-identical to the
  // full pass, which the equivalence suite checks against from-zero mode.
  void FillOutcome(Harness& run, int schedule_index, ScheduleOutcome* out,
                   const TraceFold* resume = nullptr) const;
  static bool SameFailure(const ScheduleOutcome& a, const ScheduleOutcome& b);

  ExploreOptions options_;
};

}  // namespace explore

#endif  // SRC_EXPLORE_EXPLORER_H_
