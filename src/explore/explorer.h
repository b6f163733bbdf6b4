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

#include <atomic>
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
  bool sweep_runtime_seed = true;   // vary Config::seed across schedules too
  double preempt_probability = 0.15;
  double shuffle_probability = 0.3;
  bool fail_on_findings = true;     // detector findings count as failures
  pcr::Config base_config;          // per-run Config (seed field may be swept)
  size_t max_failures = 8;          // stop exploring after this many distinct failures
  bool minimize = true;             // shrink failing decision streams before reporting
  // Base fault plan injected into every schedule (disabled by default). With sweep_fault_seed,
  // each perturbed schedule redraws the plan's probabilistic seed from the master RNG, so one
  // Explore call searches fault x schedule space; the baseline keeps the plan verbatim.
  fault::Plan fault_plan;
  bool sweep_fault_seed = true;
  DetectorOptions detector;
  // OS worker threads schedules are fanned across (0 = hardware concurrency, 1 = serial).
  // The result is byte-identical for every value: schedules execute on whichever worker is
  // free, but they are merged in schedule-index order.
  int workers = 0;
  // Populate ScheduleOutcome::coverage after each run (campaign.h's feedback signal): prefix
  // trace hashes every coverage_stride events plus the interleaving/fault/watchdog keys from
  // CollectTraceCoverage. Off by default — plain exploration never pays for it.
  bool collect_coverage = false;
  size_t coverage_stride = 64;
  uint64_t coverage_salt = 0;  // mixed into every key; the campaign salts per scenario
  // Execute schedule groups by checkpoint-and-branch: snapshot the simulation at each group's
  // divergence points and replay only the suffix per schedule (O(suffix) instead of O(horizon)).
  // Results are byte-identical either way; this only changes how they are computed. Ignored
  // (treated as false) in builds where pcr::Checkpoint::Supported() is false — ucontext fibers
  // or sanitizers. Turn off for bodies that keep non-checkpointable state outside the runtime
  // (see BugScenario::checkpoint_safe).
  bool checkpoint = true;
  // DPOR-style leaf pruning (dpor.h): pre-simulate each candidate leaf's decision stream over
  // its executed sibling's consultation log and skip leaves that are provably the same
  // schedule (sleep set) or diverge only inside the independent tail (drain-tail elision).
  // Pruning only ever copies *passing* witness outcomes, so reported failures — findings,
  // hashes, repros — are byte-identical with this off; only distinct_schedules can differ
  // (pruned leaves contribute their witness's hash instead of executing). Applies identically
  // to checkpointed and from-zero execution; disabled automatically for fault-plan sweeps
  // (injector state is interleaving-sensitive).
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
  // trace hashes + CollectTraceCoverage edges. The campaign unions these per run.
  std::vector<uint64_t> coverage;
};

// Self-profiling for one Explore call: where the wall time went, and how much of the per-run
// cost is the race detector versus the runtime itself. Phase times are wall clock; run_sec and
// detector_sec are summed across workers, so on an N-worker pool they can exceed total_sec.
struct ExploreProfile {
  double total_sec = 0;
  double baseline_sec = 0;   // schedule 0 (serial, also sets the PCT horizon)
  double sweep_sec = 0;      // the parallel schedule fan-out
  double minimize_sec = 0;   // shrinking failing decision streams
  double run_sec = 0;        // summed: body execution + runtime shutdown, all schedules
  double detector_sec = 0;   // summed: AnalyzeTrace over every schedule's trace
  double schedules_per_sec = 0;
  // Runtime counters summed across every schedule the Explore call executed (baseline, sweep,
  // minimization replays). stack_pool_hits depends on which worker ran which schedule, so it is
  // informational only — never part of result comparison.
  int64_t fiber_switches = 0;
  int64_t stack_acquires = 0;
  int64_t stack_pool_hits = 0;
  // Checkpoint-and-branch counters (all zero with ExploreOptions::checkpoint off or
  // unsupported). pruned_schedules counts schedules whose outcome was copied from an
  // already-executed group member because their state fingerprints matched at the divergence
  // point — they are included in schedules_run but cost no execution.
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

// Warm capacity one pool worker carries from run to run: guard-paged stacks and the trace
// event buffer, the two dominant per-Runtime allocations. Explore keeps one per pool worker for
// the call; the campaign keeps one per pool worker for its lifetime. Only *capacity* is
// recycled: a recycled stack still holds its last user's bytes, but no defined behaviour reads
// stack memory before writing it, so a warm arena and a fresh one produce byte-identical
// outcomes — which is what keeps results independent of worker count. The symbol table is
// deliberately not here: interning order differs per schedule, so reuse would leak state. Used
// by one OS thread at a time.
struct WorkerArena {
  pcr::StackPool stacks;
  trace::SegmentArena trace_buffer;
};

class Explorer {
 public:
  explicit Explorer(ExploreOptions options = {});

  // Runs up to options.budget schedules. Deterministic: same options + same body => same result.
  ExploreResult Explore(const TestBody& body);

  // Re-executes the schedule described by `repro` (scenario field ignored here). Throws
  // pcr::UsageError on a malformed repro string. With `capture` non-null, the replayed run's
  // full event stream and symbol table are copied into it (the tracer's prior events are kept;
  // its symbol table is replaced) — the hook pcrcheck uses to export failing schedules. With
  // `arena` non-null the run draws its stacks and trace buffer from it (a fresh local arena
  // otherwise); the outcome is the same either way.
  ScheduleOutcome Replay(const std::string& repro, const TestBody& body,
                         trace::Tracer* capture = nullptr, WorkerArena* arena = nullptr);

  // Prefix-truncates and zeroes decisions (and shrinks fault plans to the fired script) while
  // the same bug keeps reproducing. Public so the campaign can minimize crashing corpus
  // entries with the exact path pcrcheck failures already use; deterministic (bounded replay
  // budget, no randomness). `arena` as for Replay.
  ScheduleOutcome Minimize(const ScheduleOutcome& outcome, const TestBody& body,
                           WorkerArena* arena = nullptr);

  const ExploreOptions& options() const { return options_; }

 private:
  struct Plan {
    uint64_t runtime_seed = 1;
    PerturbPolicy policy;                // recording mode when `replay` is empty
    std::vector<Decision> replay;
    bool replay_mode = false;
    fault::Plan fault_plan;              // installed for the run when enabled()
  };

  // One prefix-grouped work unit: up to prod(fanout) consecutive schedules sharing the
  // segment-1 decision prefix (seed q0 + the group's change points). Crossing consultation
  // depths[k] fires segment level k+1: a level-1 child c reseeds to MixSeed(q0, 1, c); a
  // level-l>=2 child c reseeds to MixSeed(q0 ^ F, l, c), where F is the trace-prefix
  // fingerprint at the boundary — so equal fingerprints provably yield identical
  // continuations, which is what makes state-hash pruning exact, not heuristic. Flat schedule
  // index of coordinates (c0, .., cL-1) is first_schedule + sum(ck * stride_k) in row-major
  // order; cells past the overall budget are skipped (members counts the in-budget ones).
  struct GroupPlan {
    int group_index = 0;
    int first_schedule = 1;
    std::vector<int> fanout;              // children per tree level (last level = leaves)
    std::vector<uint64_t> depths;         // divergence consultation indices, strictly increasing
    int members = 1;
    uint64_t runtime_seed = 1;
    uint64_t q0 = 0;                      // segment-1 decision seed and reseed basis
    std::vector<uint64_t> change_points;  // group-shared PCT change points
    bool dpor = false;                    // leaf-level sleep-set pruning for this group
    fault::Plan fault_plan;
  };

  // Everything RunGroupMember reports about one from-zero probe run beyond its outcome:
  // how many segment levels it crossed, the reseed fingerprints at each crossed level >= 2,
  // and (when the group prunes) the dpor witness data mirrored from the checkpoint path.
  struct MemberProbe {
    int reached = 0;                      // segment levels crossed (0 = ended before depths[0])
    std::vector<uint64_t> fingerprints;   // indexed by level; [0..1] unused
    bool witness_valid = false;           // passing run with an aligned consultation log
    std::vector<ConsultRecord> suffix;    // consult records from depths.back() onward
    uint64_t independent_tail_event = 0;
  };

 public:
  // Checkpoint/pruning counters accumulated since the last Explore() call (which resets them).
  // Replay/Minimize add to them whenever they run grouped plans. The fuzzing campaign reads
  // these per-scenario explorers for its status JSON.
  int64_t checkpoint_saves() const { return checkpoint_saves_.load(std::memory_order_relaxed); }
  int64_t checkpoint_resumes() const {
    return checkpoint_resumes_.load(std::memory_order_relaxed);
  }
  int64_t checkpoint_bytes() const { return checkpoint_bytes_.load(std::memory_order_relaxed); }
  int64_t pruned_schedules() const { return pruned_.load(std::memory_order_relaxed); }
  int64_t dpor_pruned() const { return dpor_pruned_.load(std::memory_order_relaxed); }
  int64_t drain_spliced() const { return drain_spliced_.load(std::memory_order_relaxed); }

 private:
  ScheduleOutcome RunPlan(const Plan& plan, int schedule_index, const TestBody& body,
                          WorkerArena& arena, trace::Tracer* capture = nullptr,
                          std::vector<ConsultRecord>* consult_log = nullptr);
  // Group execution: checkpoint-and-branch (O(suffix) per schedule) or from-zero replay of the
  // same plans. Both fill `outcomes` (size group.members, flat order) with byte-identical
  // results and identical pruned counts. RunGroupCheckpoint returns false when the run paused
  // with an exception in flight (a fiber suspended mid-unwind, which no Checkpoint can
  // capture); the caller then recomputes the group from zero, overwriting `outcomes`.
  bool RunGroupCheckpoint(const GroupPlan& group, const TestBody& body,
                          std::vector<ScheduleOutcome>* outcomes, WorkerArena& arena);
  void RunGroupReplay(const GroupPlan& group, const TestBody& body,
                      std::vector<ScheduleOutcome>* outcomes, WorkerArena& arena);
  // From-zero execution of one group member on the calling frame. `path` gives the member's
  // per-level coordinates (path.size() == group.depths.size()); `probe` receives the run's
  // segment telemetry (and dpor witness data when group.dpor and the path ends in leaf 0).
  ScheduleOutcome RunGroupMember(const GroupPlan& group, const std::vector<int>& path,
                                 const TestBody& body, WorkerArena& arena, MemberProbe* probe);
  // Shared post-run analysis: detector, trace hash, coverage, repro encoding. When the caller
  // already holds the running hash of a trace prefix (checkpointed groups hash the shared
  // prefix once), resume_hasher/resume_events let the trace hash continue from it instead of
  // rehashing from event zero — FNV continuation is value-identical to the full pass. The same
  // boundary feeds resume_analyzer: a detector fold already carried to resume_events continues
  // over the suffix only, and both are checked byte-identical against from-zero mode by the
  // equivalence suite.
  void FillOutcome(trace::Tracer& tracer, const TestContext& ctx,
                   const std::vector<Decision>& decisions, uint64_t preempt_points,
                   uint64_t total_decisions, const std::vector<fault::ScriptedFault>& fired,
                   uint64_t runtime_seed, const fault::Plan& fault_plan, int schedule_index,
                   ScheduleOutcome* out, const TraceHasher* resume_hasher = nullptr,
                   size_t resume_events = 0, const TraceAnalyzer* resume_analyzer = nullptr);
  static bool SameFailure(const ScheduleOutcome& a, const ScheduleOutcome& b);

  ExploreOptions options_;
  // Profile accumulators; atomics because RunPlan executes concurrently on pool workers.
  std::atomic<int64_t> run_ns_{0};
  std::atomic<int64_t> detector_ns_{0};
  std::atomic<int64_t> fiber_switches_{0};
  std::atomic<int64_t> stack_acquires_{0};
  std::atomic<int64_t> stack_pool_hits_{0};
  std::atomic<int64_t> checkpoint_saves_{0};
  std::atomic<int64_t> checkpoint_resumes_{0};
  std::atomic<int64_t> checkpoint_bytes_{0};
  std::atomic<int64_t> pruned_{0};
  std::atomic<int64_t> dpor_pruned_{0};
  std::atomic<int64_t> drain_spliced_{0};
};

}  // namespace explore

#endif  // SRC_EXPLORE_EXPLORER_H_
