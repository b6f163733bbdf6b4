#include "src/explore/explorer.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <unordered_set>
#include <utility>

#include "src/explore/hash.h"
#include "src/explore/pool.h"
#include "src/pcr/checkpoint.h"
#include "src/pcr/errors.h"
#include "src/pcr/fiber.h"

namespace explore {

namespace {

using ProfileClock = std::chrono::steady_clock;

double SecSince(ProfileClock::time_point start) {
  return std::chrono::duration<double>(ProfileClock::now() - start).count();
}

// Each group's i.i.d. noise on top of its PCT change points: the chance a ForcePreempt
// consultation fires, and the chance a ready-queue tie-break picks a random candidate.
constexpr double kPreemptProbability = 0.15;
constexpr double kShuffleProbability = 0.3;

// Exec-fiber stack: holds the scenario body's own frame plus the scheduler run loop, while
// every simulated thread runs on its own fiber stack.
constexpr size_t kExecStackBytes = 256 * 1024;

pcr::Config RunConfig(pcr::Config config, uint64_t runtime_seed, WorkerArena& arena) {
  config.seed = runtime_seed;
  config.trace_events = true;  // the trace is the whole point
  config.stack_pool = &arena.stacks;
  return config;
}

// Cells covered by one child subtree rooted at tree level `level` (1-based): the product of
// the fanouts strictly below that level. Leaves (level == fanout.size()) have stride 1.
int SubtreeStride(const std::vector<int>& fanout, size_t level) {
  int stride = 1;
  for (size_t l = level; l < fanout.size(); ++l) {
    stride *= fanout[l];
  }
  return stride;
}

// The decision seed of child `c` past segment boundary `level` (1-based). Past the first
// boundary it also mixes in the trace-prefix fingerprint `f` there (see GroupPlan).
uint64_t SegmentSeed(uint64_t q0, size_t level, int c, uint64_t f) {
  return level == 1 ? MixSeed(q0, 1, static_cast<uint64_t>(c))
                    : MixSeed(q0 ^ f, level, static_cast<uint64_t>(c));
}

// Adds one worker's run counters to the Explore call's profile.
void AddRunCounters(const ExploreProfile& worker, ExploreProfile* total) {
  total->run_sec += worker.run_sec;
  total->detector_sec += worker.detector_sec;
  total->fiber_switches += worker.fiber_switches;
  total->stack_acquires += worker.stack_acquires;
  total->stack_pool_hits += worker.stack_pool_hits;
  total->checkpoint_saves += worker.checkpoint_saves;
  total->checkpoint_resumes += worker.checkpoint_resumes;
  total->checkpoint_bytes += worker.checkpoint_bytes;
  total->pruned_schedules += worker.pruned_schedules;
  total->dpor_pruned += worker.dpor_pruned;
  total->drain_spliced += worker.drain_spliced;
}

}  // namespace

Explorer::Explorer(ExploreOptions options) : options_(std::move(options)) {}

// One explored Runtime, set up alike for every run: the Config with the run's seed on the
// arena's stacks, the arena's trace buffer, the recorder (or a replayer in its place) and, when
// the plan is armed, the fault injector. The destructor adds the scheduler's host counts to the
// arena's profile and hands the trace buffer back, so whatever reads the trace runs first.
class Explorer::Harness {
 public:
  Harness(const pcr::Config& base, WorkerArena& arena, uint64_t runtime_seed,
          const fault::Plan& faults, const PerturbPolicy& policy,
          pcr::SchedulePerturber* replayer = nullptr)
      : recorder(policy), injector(faults), rt(RunConfig(base, runtime_seed, arena)),
        arena(arena) {
    rt.tracer().AdoptEventBuffer(std::move(arena.trace_buffer));
    rt.scheduler().set_perturber(replayer != nullptr ? replayer : &recorder);
    if (faults.enabled()) {
      rt.scheduler().set_fault_injector(&injector);
    }
  }
  // A group member: the group's policy, with `segment_hook` firing at its boundaries and the
  // consultation log kept when the group prunes leaves.
  Harness(const pcr::Config& base, WorkerArena& arena, const GroupPlan& group,
          const std::function<void(int)>* segment_hook)
      : Harness(base, arena, group.runtime_seed, group.fault_plan, group.policy) {
    if (group.dpor) {
      recorder.EnableConsultLog(&rt.tracer());
    }
    recorder.SetSegmentBoundaries(group.depths);
    recorder.set_segment_hook(segment_hook);
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  ~Harness() {
    rt.scheduler().set_perturber(nullptr);
    rt.scheduler().set_fault_injector(nullptr);
    const pcr::HostCounts& counts = rt.scheduler().host_counts();
    arena.profile.fiber_switches += counts.fiber_switches;
    arena.profile.stack_acquires += counts.stack_acquires;
    arena.profile.stack_pool_hits += counts.stack_pool_hits;
    arena.trace_buffer = rt.tracer().TakeEventBuffer();
  }

  // The body, then Shutdown. An exception escaping the body fails the run.
  void RunBody(const TestBody& body) {
    try {
      body(rt, ctx);
    } catch (const std::exception& e) {
      ctx.Fail(std::string("uncaught exception: ") + e.what());
    }
    rt.Shutdown();
  }
  // RunBody on the calling frame, timed into the profile.
  void Run(const TestBody& body) {
    const auto start = ProfileClock::now();
    RunBody(body);
    arena.profile.run_sec += SecSince(start);
  }

  // Host-frame run state: the scheduler holds pointers to these, and a checkpoint restore
  // rewinds them by copy-assignment (their addresses never change, only their contents).
  RecordingPerturber recorder;
  fault::Injector injector;
  pcr::Runtime rt;
  TestContext ctx;
  WorkerArena& arena;
};

ScheduleOutcome Explorer::RunPlan(const Repro* replay, int schedule_index,
                                  const TestBody& body, WorkerArena& arena,
                                  trace::Tracer* capture,
                                  std::vector<ConsultRecord>* consult_log) const {
  const uint64_t runtime_seed =
      replay != nullptr ? replay->runtime_seed : options_.base_config.seed;
  const fault::Plan& faults = replay != nullptr ? replay->fault_plan : options_.fault_plan;
  ReplayPerturber replayer(replay != nullptr ? replay->decisions : std::vector<Decision>());
  Harness run(options_.base_config, arena, runtime_seed, faults, PerturbPolicy{},
              replay != nullptr ? &replayer : nullptr);
  if (consult_log != nullptr) {
    run.recorder.EnableConsultLog(&run.rt.tracer());  // the baseline's decision-density sample
  }
  run.Run(body);

  if (capture != nullptr) {
    // Symbol ids in the captured events are only meaningful against the run's own table, so
    // the capture tracer's table is replaced wholesale (SymbolTable copies rebuild the index).
    capture->symbols() = run.rt.tracer().symbols();
    for (const trace::Event& e : run.rt.tracer().view()) {
      capture->Record(e);
    }
  }

  ScheduleOutcome outcome;
  FillOutcome(run, schedule_index, &outcome);
  // Every outcome carries its repro here, passing or not: the campaign stores the repros of
  // passing replays as corpus entries.
  const std::vector<Decision>& decisions =
      replay != nullptr ? replayer.consumed() : run.recorder.decisions();
  outcome.repro =
      Repro{options_.scenario_name, runtime_seed, TrimTrailingDefaults(decisions), faults}.Encode();
  if (consult_log != nullptr) {
    *consult_log = run.recorder.consult_log();
  }
  return outcome;
}

void Explorer::FillOutcome(Harness& run, int schedule_index, ScheduleOutcome* out,
                           const TraceFold* resume) const {
  out->schedule_index = schedule_index;
  const auto detector_start = ProfileClock::now();
  TraceFold& fold = run.arena.fold;
  if (resume != nullptr) {
    fold = *resume;  // O(suffix): the fold goes on from the shared prefix
  } else {
    fold.Reset(options_.collect_coverage, options_.coverage_salt);
  }
  fold.Feed(run.rt.tracer());
  out->findings = fold.Findings();
  out->trace_hash = fold.hash();
  out->coverage = fold.Coverage();
  run.arena.profile.detector_sec += SecSince(detector_start);
  out->failures = run.ctx.failures();
  if (options_.fail_on_findings) {
    for (const Finding& f : out->findings) {
      out->failures.push_back(std::string(FindingKindName(f.kind)) + ": " + f.detail);
    }
  }
  out->failed = !out->failures.empty();
  // An unused recorder (a replayed run) reports zero for both.
  out->preempt_points = run.recorder.preempt_points_seen();
  out->total_decisions = run.recorder.total_consults();
  out->fired_faults = run.injector.fired();
}

// How the walk reaches the runs of one group. The walk stands at a node of the group's tree:
// the group's start (level 0), or a run paused at depths[level - 1].
class Explorer::GroupCursor {
 public:
  GroupCursor(const Explorer& explorer, const GroupPlan& group, const TestBody& body,
              WorkerArena& arena)
      : explorer_(explorer), group_(group), body_(body), arena_(arena) {}
  GroupCursor(const GroupCursor&) = delete;  // the run state's hooks capture `this`
  GroupCursor& operator=(const GroupCursor&) = delete;
  virtual ~GroupCursor() = default;

  // Runs child `c` of the node at `level` with decision seed `seed`, until the run pauses at
  // depths[level] (true) or ends (false). Child 0 continues the node's own run; a child c > 0
  // branches off the node.
  virtual bool Advance(size_t level, int c, uint64_t seed) = 0;
  // The trace-prefix fingerprint of the paused run.
  virtual uint64_t fingerprint() const = 0;
  // Bracket the walk's descent into the paused run's subtree.
  virtual void Enter() {}
  virtual void Leave() {}

  // The outcome of the run that just ended, with a repro only if it failed.
  void Fill(int schedule_index, ScheduleOutcome* out) {
    explorer_.FillOutcome(run(), schedule_index, out, resume());
    if (out->failed) {
      out->repro = Repro{explorer_.options_.scenario_name, group_.runtime_seed,
                         TrimTrailingDefaults(run().recorder.decisions()), group_.fault_plan}
                       .Encode();
    }
  }
  // Leaf 0 of a leaf parent, whose outcome is `out`, can anchor DPOR pruning of its siblings
  // only when copying its outcome over a sibling is provably lossless: it passed with no
  // findings and no fired faults, and its consultation log is complete (one record per
  // consultation, nowhere near the recording cap). Copies the log from the leaf boundary on and
  // the trace's independent-tail start; false when the run cannot be the witness.
  bool Witness(const ScheduleOutcome& out, std::vector<ConsultRecord>* suffix, uint64_t* tail) {
    const RecordingPerturber& recorder = run().recorder;
    const std::vector<ConsultRecord>& log = recorder.consult_log();
    if (out.failed || !out.findings.empty() || !out.fired_faults.empty() ||
        recorder.total_consults() >= kMaxRecordedDecisions ||
        log.size() != recorder.total_consults() || log.size() <= group_.depths.back()) {
      return false;
    }
    suffix->assign(log.begin() + static_cast<ptrdiff_t>(group_.depths.back()), log.end());
    *tail = IndependentTailStart(run().rt.tracer());
    return true;
  }

 protected:
  // The run the last Advance reached, and the trace folds its suffix continues from.
  virtual Harness& run() = 0;
  virtual const TraceFold* resume() const { return nullptr; }

  const Explorer& explorer_;
  const GroupPlan& group_;
  const TestBody& body_;
  WorkerArena& arena_;
};

// Reaches every run of the group from one execution of the body on a dedicated exec fiber. At a
// segment boundary the recorder parks the simulation (CheckpointPause), the scheduler fires the
// checkpoint hook from the exec stack, and the hook suspends the exec fiber — leaving every
// fiber quiescent with the host in control. Entering a node snapshots it; a child c > 0
// restores the snapshot and runs only its own suffix (O(suffix) per schedule).
class Explorer::CheckpointCursor : public Explorer::GroupCursor {
 public:
  // Thrown out of Advance when the run paused with an exception in flight. A fiber can pause
  // mid-unwind: ~MonitorGuard's Exit charges virtual time. The exception is heap state plus a
  // per-OS-thread count that no Checkpoint rewinds, so such a pause is neither snapshotted nor
  // restored past.
  struct ExceptionInFlight {};

  CheckpointCursor(const Explorer& explorer, const GroupPlan& group, const TestBody& body,
                   WorkerArena& arena)
      : GroupCursor(explorer, group, body, arena),
        run_(explorer.options_.base_config, arena, group, &pause_),
        exec_(
            [this] {
              try {
                run_.RunBody(body_);
              } catch (const pcr::CheckpointAbort&) {
                // Group abandoned with this execution suspended mid-run: unwind quietly; the
                // host already shut the simulated threads down.
              }
            },
            arena.stacks.Acquire(kExecStackBytes), &arena.stacks) {
    run_.rt.scheduler().set_checkpoint_hook([this] { exec_.Suspend(); });
    nodes_.reserve(group.depths.size());
    if (arena.node_folds.size() <= group.depths.size()) {
      arena.node_folds.resize(group.depths.size() + 1);
    }
  }

  ~CheckpointCursor() override {
    // Checkpoints must die newest-first (LIFO fiber pins); a vector destroys front to back.
    while (!nodes_.empty()) {
      nodes_.pop_back();
    }
    if (std::uncaught_exceptions() > 0) {
      // Advance threw ExceptionInFlight. Finish the paused run without further pauses, before
      // the harness takes the trace buffer back.
      run_.recorder.set_segment_hook(nullptr);
      Resume();
    }
    if (!exec_.finished()) {
      // The last branch was pruned at its pause point: shut the simulated threads down from
      // the host (with the hook installed, Shutdown discards them), then unwind the suspended
      // body via CheckpointAbort.
      run_.rt.Shutdown();
      run_.rt.scheduler().RequestCheckpointAbort();
      Resume();
    }
    run_.rt.scheduler().set_checkpoint_hook(nullptr);
    arena_.profile.checkpoint_saves += saves_;
    arena_.profile.checkpoint_resumes += resumes_;
    arena_.profile.checkpoint_bytes += bytes_;
  }

  bool Advance(size_t /*level*/, int c, uint64_t seed) override {
    if (c > 0) {
      NodeState& at = nodes_.back();
      at.ckpt->Restore();
      ++resumes_;
      run_.recorder = at.recorder;
      run_.injector = at.injector;
      run_.ctx = at.ctx;
    }
    run_.recorder.ReseedSegment(seed);
    Resume();
    if (exec_.finished()) {
      return false;
    }
    if (std::uncaught_exceptions() > 0) {
      throw ExceptionInFlight{};
    }
    // Paused: fold the events since the node into the child's fold, the arena's fold of the
    // level below. No snapshot yet: a sibling with the same fingerprint is pruned before a
    // checkpoint is spent on it.
    TraceFold& fold = paused_fold();
    if (const TraceFold* base = resume(); base != nullptr) {
      fold = *base;
    } else {
      fold.Reset(explorer_.options_.collect_coverage, explorer_.options_.coverage_salt);
    }
    fold.Feed(run_.rt.tracer());
    return true;
  }
  uint64_t fingerprint() const override { return paused_fold().hash(); }
  void Enter() override {
    // The paused run's fold is already in place: it becomes the new node's.
    nodes_.push_back(NodeState{run_.recorder, run_.injector, run_.ctx,
                               std::make_unique<pcr::Checkpoint>(run_.rt.scheduler(),
                                                                 run_.rt.tracer(), &exec_)});
    ++saves_;
    bytes_ += static_cast<int64_t>(nodes_.back().ckpt->bytes());
  }
  void Leave() override { nodes_.pop_back(); }

 protected:
  Harness& run() override { return run_; }
  const TraceFold* resume() const override {
    return nodes_.empty() ? nullptr : &arena_.node_folds[nodes_.size() - 1];
  }

 private:
  // A node's host-frame run state beside the snapshot of the simulation; its trace fold is
  // arena_.node_folds[depth]. The checkpoint is the last member, so it is destroyed first.
  struct NodeState {
    RecordingPerturber recorder;
    fault::Injector injector;
    TestContext ctx;
    std::unique_ptr<pcr::Checkpoint> ckpt;
  };

  // The fold of the run paused below the nodes the walk stands in.
  TraceFold& paused_fold() const { return arena_.node_folds[nodes_.size()]; }

  // Runs the exec fiber until it pauses or ends, timed into the profile.
  void Resume() {
    const auto start = ProfileClock::now();
    exec_.Resume();
    arena_.profile.run_sec += SecSince(start);
  }

  const std::function<void(int)> pause_ = [this](int) { run_.rt.scheduler().CheckpointPause(); };
  Harness run_;
  pcr::Fiber exec_;
  std::vector<NodeState> nodes_;  // the nodes the walk stands in, root first
  int64_t saves_ = 0;
  int64_t resumes_ = 0;
  int64_t bytes_ = 0;
};

// Reaches every run of the group by executing its path from zero: branching runs the member's
// path, and continuing reads the run already made. Reseeds fire inline at the segment
// boundaries instead of pausing, so the recorded decisions — and therefore the trace — are
// byte-identical to the checkpoint cursor's.
class Explorer::FromZeroCursor : public Explorer::GroupCursor {
 public:
  FromZeroCursor(const Explorer& explorer, const GroupPlan& group, const TestBody& body,
                 WorkerArena& arena)
      : GroupCursor(explorer, group, body, arena),
        path_(group.depths.size(), 0),
        fingerprints_(group.depths.size() + 1, 0) {}

  bool Advance(size_t level, int c, uint64_t /*seed*/) override {
    if (level == 0 || c > 0) {
      if (level > 0) {
        path_[level - 1] = c;
        std::fill(path_.begin() + static_cast<ptrdiff_t>(level), path_.end(), 0);
      }
      reached_ = 0;
      // emplace destroys the previous run first, which hands the trace buffer back.
      run_.emplace(explorer_.options_.base_config, arena_, group_, &reseed_);
      run_->Run(body_);
    }
    level_ = level;
    return reached_ > level;
  }
  uint64_t fingerprint() const override { return fingerprints_[level_ + 1]; }

 protected:
  Harness& run() override { return *run_; }

 private:
  // Crossing boundary `level` reseeds to the seed the walk computes for this path's child.
  const std::function<void(int)> reseed_ = [this](int hook_level) {
    const auto level = static_cast<size_t>(hook_level);
    reached_ = level;
    fingerprints_[level] = level >= 2 ? TraceHash(run_->rt.tracer()) : 0;
    run_->recorder.ReseedSegment(
        SegmentSeed(group_.policy.seed, level, path_[level - 1], fingerprints_[level]));
  };
  std::vector<int> path_;               // the current run's child index per level
  size_t reached_ = 0;                  // boundaries the current run crossed
  std::vector<uint64_t> fingerprints_;  // its fingerprint at each boundary past the first
  size_t level_ = 0;                    // the level of the last Advance
  std::optional<Harness> run_;
};

void Explorer::WalkGroup(const GroupPlan& group, GroupCursor& cursor, GroupCells* cells,
                         ExploreProfile& profile) {
  cells->hashes.assign(static_cast<size_t>(group.members), 0);
  cells->failures.clear();
  const size_t levels = group.depths.size();
  std::vector<uint64_t> sorted_points = group.policy.change_points;
  std::sort(sorted_points.begin(), sorted_points.end());
  int64_t pruned = 0;
  int64_t dpor_pruned = 0;
  int64_t drain_spliced = 0;
  // A pruned cell holds only the trace hash of the cell that stands in for it.
  auto stand_in = [&](int source, int cell) {
    cells->hashes[static_cast<size_t>(cell)] = cells->hashes[static_cast<size_t>(source)];
    ++pruned;
  };

  // Walks the children of the node at `level`, which covers the cells from `first`; `f` is the
  // node's fingerprint.
  std::function<void(size_t, int, uint64_t)> walk = [&](size_t level, int first, uint64_t f) {
    const int stride = SubtreeStride(group.fanout, level);
    const int children = level == 0 ? 1 : group.fanout[level - 1];
    std::vector<std::pair<uint64_t, int>> seen;  // child fingerprint -> first child with it
    // At a leaf parent: leaf 0's consultation suffix, copied out before any branch rewinds it.
    bool witness = false;
    std::vector<ConsultRecord> suffix;
    uint64_t tail = 0;
    for (int c = 0; c < children; ++c) {
      const int child_first = first + c * stride;
      if (child_first >= group.members) {
        break;
      }
      const int covered = std::min(stride, group.members - child_first);
      const uint64_t seed =
          level == 0 ? group.policy.seed : SegmentSeed(group.policy.seed, level, c, f);
      if (witness) {
        // Sleep-set check before paying for the run: pre-simulate this leaf's decision stream
        // over the witness's consultation log.
        const LeafVerdict v =
            ClassifyLeaf(seed, group.policy, sorted_points, {suffix.data(), suffix.size(), tail});
        if (v != LeafVerdict::kExecute) {
          stand_in(first, child_first);
          ++(v == LeafVerdict::kIdenticalPrune ? dpor_pruned : drain_spliced);
          continue;
        }
      }
      if (!cursor.Advance(level, c, seed)) {
        // Ended before depths[level]: no deeper reseed ever applies, so this one schedule
        // covers the whole subtree (at a leaf parent, the subtree is the leaf). The walk meets
        // executed cells in flat order, so failures stay in cell order.
        ScheduleOutcome out;
        cursor.Fill(group.first_schedule + child_first, &out);
        cells->hashes[static_cast<size_t>(child_first)] = out.trace_hash;
        for (int j = 1; j < covered; ++j) {
          stand_in(child_first, child_first + j);
        }
        if (level == levels && c == 0 && group.dpor) {
          witness = cursor.Witness(out, &suffix, &tail);
        }
        if (out.failed) {
          cells->failures.push_back(std::move(out));
        }
        continue;
      }
      // Paused at depths[level]. The reseed below the pause is a pure function of (q0,
      // fingerprint, coordinate), so a sibling with the same fingerprint provably has the same
      // continuations: its cells stand in for this child's, and the paused run is abandoned.
      const uint64_t child_f = cursor.fingerprint();
      auto same = std::find_if(seen.begin(), seen.end(),
                               [child_f](const auto& known) { return known.first == child_f; });
      if (same != seen.end()) {
        for (int j = 0; j < covered; ++j) {
          stand_in(first + same->second * stride + j, child_first + j);
        }
        continue;
      }
      seen.emplace_back(child_f, c);
      cursor.Enter();
      walk(level + 1, child_first, child_f);
      cursor.Leave();
    }
  };
  walk(0, 0, 0);
  profile.pruned_schedules += pruned;
  profile.dpor_pruned += dpor_pruned;
  profile.drain_spliced += drain_spliced;
}

void Explorer::RunGroup(const GroupPlan& group, const TestBody& body, GroupCells* cells,
                        WorkerArena& arena) const {
  if (options_.checkpoint && pcr::Checkpoint::Supported()) {
    try {
      CheckpointCursor cursor(*this, group, body, arena);
      WalkGroup(group, cursor, cells, arena.profile);
      return;
    } catch (const CheckpointCursor::ExceptionInFlight&) {
      // The cursor drained the paused run as it died. The cells and pruning counts come from
      // the from-zero walk alone.
    }
  }
  FromZeroCursor cursor(*this, group, body, arena);
  WalkGroup(group, cursor, cells, arena.profile);
}

bool Explorer::SameFailure(const ScheduleOutcome& a, const ScheduleOutcome& b) {
  if (!a.failed || !b.failed) {
    return false;
  }
  if (!a.findings.empty() && !b.findings.empty()) {
    return a.findings.front().SameBug(b.findings.front());
  }
  if (a.findings.empty() != b.findings.empty()) {
    return false;
  }
  // No detector findings on either side: fall back to the first assertion message. Messages
  // embed stable text per Check call site, so this groups failures by which check tripped.
  return !a.failures.empty() && !b.failures.empty() && a.failures.front() == b.failures.front();
}

ScheduleOutcome Explorer::Minimize(const ScheduleOutcome& outcome, const TestBody& body,
                                   WorkerArena* arena) const {
  WorkerArena local;
  WorkerArena& warm = arena != nullptr ? *arena : local;
  Repro current;
  if (!Repro::Decode(outcome.repro, &current)) {
    return outcome;  // shouldn't happen: we produced the string ourselves
  }

  int replays_left = 128;
  auto still_fails = [&](const Repro& candidate, ScheduleOutcome* result) {
    if (replays_left <= 0) {
      return false;
    }
    --replays_left;
    ScheduleOutcome attempt = RunPlan(&candidate, outcome.schedule_index, body, warm);
    if (SameFailure(outcome, attempt)) {
      *result = std::move(attempt);
      return true;
    }
    return false;
  };

  ScheduleOutcome best = outcome;

  // Phase 1: binary-search the shortest failing prefix (defaults past the cut).
  size_t lo = 0;
  size_t hi = current.decisions.size();
  while (lo < hi && replays_left > 0) {
    size_t mid = lo + (hi - lo) / 2;
    Repro prefix = current;
    prefix.decisions.resize(mid);
    ScheduleOutcome attempt;
    if (still_fails(prefix, &attempt)) {
      hi = mid;
      best = std::move(attempt);
    } else {
      lo = mid + 1;
    }
  }
  current.decisions.resize(std::min(current.decisions.size(), hi));

  // Phase 2: zero individual non-default decisions, last first (late perturbations are the
  // likeliest to be incidental).
  for (size_t i = current.decisions.size(); i-- > 0 && replays_left > 0;) {
    if (current.decisions[i] == 0) {
      continue;
    }
    Repro candidate = current;
    candidate.decisions[i] = 0;
    ScheduleOutcome attempt;
    if (still_fails(candidate, &attempt)) {
      current = std::move(candidate);
      best = std::move(attempt);
    }
  }

  // Phase 3: pin a probabilistic plan down to a script of exactly the faults that fired in the
  // current best run. The injector draws the RNG only at armed sites, so the script reproduces
  // the identical firings — the repro then names its faults instead of hiding them in a seed.
  if (current.fault_plan.rate > 0 && replays_left > 0) {
    Repro scripted = current;
    scripted.fault_plan = fault::Plan();
    scripted.fault_plan.script = best.fired_faults;
    ScheduleOutcome attempt;
    if (still_fails(scripted, &attempt)) {
      current = std::move(scripted);
      best = std::move(attempt);
    }
  }

  // Phase 4: drop scripted faults one at a time, last first, keeping only the ones the
  // failure actually needs.
  for (size_t i = current.fault_plan.script.size(); i-- > 0 && replays_left > 0;) {
    Repro candidate = current;
    candidate.fault_plan.script.erase(candidate.fault_plan.script.begin() +
                                      static_cast<ptrdiff_t>(i));
    ScheduleOutcome attempt;
    if (still_fails(candidate, &attempt)) {
      current = std::move(candidate);
      best = std::move(attempt);
    }
  }
  return best;
}

ScheduleOutcome Explorer::Replay(const Repro& repro, const TestBody& body,
                                 trace::Tracer* capture, WorkerArena* arena) const {
  WorkerArena local;
  return RunPlan(&repro, -1, body, arena != nullptr ? *arena : local, capture);
}

ScheduleOutcome Explorer::Replay(const std::string& repro, const TestBody& body,
                                 trace::Tracer* capture, WorkerArena* arena) const {
  Repro decoded;
  if (!Repro::Decode(repro, &decoded)) {
    throw pcr::UsageError("malformed repro string: " + repro);
  }
  return Replay(decoded, body, capture, arena);
}

ExploreResult Explorer::Explore(const TestBody& body) const {
  ExploreResult result;
  std::unordered_set<uint64_t> hashes;
  const auto total_start = ProfileClock::now();

  auto note_hash = [&hashes](uint64_t h) { hashes.insert(h); };

  // One arena per pool worker, alive for the whole Explore call: each worker's schedules
  // inherit its predecessor's stack pool and trace-buffer capacity instead of paying mmap +
  // mprotect + heap growth per Runtime. Outcome bytes cannot depend on which arena served a
  // schedule (see WorkerArena). Each arena also keeps its worker's profile counters.
  int workers = options_.workers > 0 ? options_.workers : WorkerPool::HardwareWorkers();
  WorkerPool pool(workers);
  std::vector<std::unique_ptr<WorkerArena>> arenas;
  arenas.reserve(static_cast<size_t>(pool.workers()));
  for (int w = 0; w < pool.workers(); ++w) {
    arenas.push_back(std::make_unique<WorkerArena>());
  }

  // Schedule 0: the unperturbed baseline. Its horizon seeds PCT change-point placement. It
  // runs on the calling thread, which is pool worker 0.
  // The options' fault plan runs verbatim: the reference fault run.
  std::vector<ConsultRecord> baseline_log;
  result.baseline = RunPlan(nullptr, 0, body, *arenas[0], nullptr, &baseline_log);
  result.profile.baseline_sec = SecSince(total_start);
  result.schedules_run = 1;
  note_hash(result.baseline.trace_hash);
  uint64_t horizon = std::max<uint64_t>(result.baseline.preempt_points, 16);
  // The segment boundaries live in total-consultation space (ForcePreempt + PickNext); place
  // them inside the baseline's decision horizon so most runs actually cross them.
  uint64_t decision_space = std::max<uint64_t>(result.baseline.total_decisions, 16);

  // Budget-tiered group geometry: crossing depths[k] reseeds level k+1, so one group of
  // prod(fanout) schedules shares one prefix execution (and each subtree shares its segment).
  // Bigger budgets amortize deeper — budgets >= 8192 add a third divergence level so the
  // per-leaf suffix shrinks again; tiny budgets keep groups small so the search still spreads
  // across many independent prefixes.
  std::vector<int> fanout;
  std::vector<double> fractions;  // target event-mass per boundary (see below)
  if (options_.budget >= 8192) {
    fanout = {4, 4, 8};
    fractions = {0.45, 0.72, 0.90};
  } else if (options_.budget >= 1024) {
    fanout = {4, 16};
    fractions = {0.55, 1.30};
  } else if (options_.budget >= 256) {
    fanout = {2, 3};
    fractions = {0.45, 0.80};
  } else if (options_.budget >= 64) {
    fanout = {2, 2};
    fractions = {0.45, 0.80};
  } else {
    fanout = {2, 1};
    fractions = {0.45, 0.80};
  }
  const size_t levels = fanout.size();
  int per_group = 1;
  for (int f : fanout) {
    per_group *= f;
  }

  // Adaptive boundary placement: the consultation index space is not uniform in work — early
  // consultations interleave thread setup, late ones sit in teardown. The baseline's consult
  // log maps each consultation to its trace position, so a boundary targeting fraction f of
  // the run's *event mass* lands where f of the actual work has happened, independent of how
  // consultations cluster. Each boundary gets a ±0.04-mass jitter window; per-group draws
  // inside the window decorrelate the groups' divergence points. Falls back to fractions of
  // the raw decision count when the baseline log is too thin to estimate density.
  std::vector<uint64_t> win_lo(levels);
  std::vector<uint64_t> win_hi(levels);
  {
    auto mass_index = [&](double f) -> uint64_t {
      const uint64_t span = baseline_log.back().event_index + 1;
      const auto target = static_cast<uint64_t>(f * static_cast<double>(span));
      if (target >= span) {
        // Fractions past 1.0 extrapolate beyond the baseline run at its mean decision
        // density: perturbed runs consult more than the unperturbed baseline (every forced
        // preempt adds context-switch decisions downstream), so a boundary meant to sit in
        // the *perturbed* tail must overshoot the baseline's own consult count.
        return baseline_log.size() +
               static_cast<uint64_t>((f - 1.0) * static_cast<double>(baseline_log.size()));
      }
      size_t lo = 0;
      size_t hi = baseline_log.size();
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (baseline_log[mid].event_index < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    };
    const bool adaptive = baseline_log.size() >= 16;
    for (size_t l = 0; l < levels; ++l) {
      if (adaptive) {
        win_lo[l] = mass_index(fractions[l] - 0.04);
        win_hi[l] = mass_index(fractions[l] + 0.04);
      } else {
        win_lo[l] =
            static_cast<uint64_t>(static_cast<double>(decision_space) * (fractions[l] - 0.04));
        win_hi[l] =
            static_cast<uint64_t>(static_cast<double>(decision_space) * (fractions[l] + 0.04));
      }
      // Clamp so every deeper boundary still has room to be strictly later. The cap allows
      // extrapolated boundaries up to twice the baseline's decision space: runs that end
      // before a boundary simply never branch there (both execution modes collapse those
      // subtrees to one schedule).
      const uint64_t cap = 2 * decision_space - (levels - l);
      const uint64_t floor = l + 1;
      win_lo[l] = std::clamp<uint64_t>(win_lo[l], floor, cap);
      win_hi[l] = std::clamp<uint64_t>(win_hi[l], win_lo[l] + 1, cap + 1);
    }
  }
  result.profile.boundary_d1 = (win_lo[0] + win_hi[0] - 1) / 2;
  result.profile.boundary_d2 = (win_lo[1] + win_hi[1] - 1) / 2;
  result.profile.boundary_d3 = levels >= 3 ? (win_lo[2] + win_hi[2] - 1) / 2 : 0;

  // Every group plan is precomputed from (options, baseline) before anything executes. The
  // horizon is fixed at the baseline's: letting it grow with each completed schedule would
  // make plan i a function of schedules 0..i-1, serializing the whole sweep. With plans pure,
  // any worker can run any group and the result cannot depend on who ran what when.
  std::mt19937_64 master(options_.seed);
  std::vector<GroupPlan> groups;
  int sweep_budget = options_.budget > 1 ? options_.budget - 1 : 0;
  groups.reserve(static_cast<size_t>((sweep_budget + per_group - 1) / per_group));
  for (int g = 0; g * per_group < sweep_budget; ++g) {
    GroupPlan group;
    group.first_schedule = 1 + g * per_group;
    group.fanout = fanout;
    group.members = std::min(per_group, options_.budget - group.first_schedule);
    group.runtime_seed = master() | 1;
    group.policy.seed = master();
    group.policy.preempt_probability = kPreemptProbability;
    group.policy.shuffle_probability = kShuffleProbability;
    // PCT-style depth: group g gets g % 4 guaranteed change points within the baseline
    // horizon. Depth cycles 0..3 so shallow bugs are not starved by deep probing.
    int depth = g % 4;
    for (int d = 0; d < depth; ++d) {
      group.policy.change_points.push_back(master() % horizon);
    }
    // The master RNG is stepped for fault seeds only when a fault plan is set, so fault-free
    // Explore calls keep drawing the same seed stream whether or not faults are in play.
    if (options_.fault_plan.enabled()) {
      group.fault_plan = options_.fault_plan;
      group.fault_plan.seed = master();
    }
    // Boundaries drawn from the adaptive jitter windows: late enough that the shared prefix
    // amortizes real work, early enough that the subtrees still have decisions left to
    // diverge on. Strict monotonicity is restored after the draws (windows can abut).
    group.depths.resize(levels);
    for (size_t l = 0; l < levels; ++l) {
      group.depths[l] = win_lo[l] + master() % std::max<uint64_t>(1, win_hi[l] - win_lo[l]);
    }
    for (size_t l = 1; l < levels; ++l) {
      if (group.depths[l] <= group.depths[l - 1]) {
        group.depths[l] = group.depths[l - 1] + 1;
      }
    }
    // Leaf pruning stays off for fault sweeps: the injector consumes its own RNG along the
    // suffix, so equal decision streams do not imply equal outcomes there.
    group.dpor = options_.dpor && !group.fault_plan.enabled();
    groups.push_back(std::move(group));
  }

  // Fan groups across workers. Each group builds its own Runtime + Tracer and shares nothing
  // but its worker's arena, so groups are embarrassingly parallel; cells land in their slot by
  // index. Groups (not schedules) being the work unit is what keeps the pool busy: one
  // coarse unit per dispatch instead of one microsecond-scale run.
  std::vector<GroupCells> group_cells(groups.size());
  const auto sweep_start = ProfileClock::now();
  pool.Run(groups.size(), [&](size_t worker, size_t g) {
    RunGroup(groups[g], body, &group_cells[g], *arenas[worker]);
  });
  result.profile.sweep_sec = SecSince(sweep_start);

  // Deterministic merge in schedule-index order: identical hashes, dedup decisions and cutoff
  // at any worker count. Outcomes past the max_failures cutoff were executed but are not
  // consumed, matching the serial explorer's early stop.
  std::vector<ScheduleOutcome> distinct;  // unminimized representative per bug
  if (result.baseline.failed) {
    distinct.push_back(result.baseline);
  }
  for (size_t g = 0; g < group_cells.size() && distinct.size() < options_.max_failures; ++g) {
    const std::vector<uint64_t>& hashes = group_cells[g].hashes;
    auto failure = group_cells[g].failures.begin();
    for (size_t k = 0; k < hashes.size() && distinct.size() < options_.max_failures; ++k) {
      ++result.schedules_run;
      note_hash(hashes[k]);
      if (failure != group_cells[g].failures.end() &&
          failure->schedule_index == groups[g].first_schedule + static_cast<int>(k)) {
        ScheduleOutcome& outcome = *failure++;
        bool duplicate = false;
        for (const ScheduleOutcome& known : distinct) {
          if (SameFailure(known, outcome)) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          distinct.push_back(std::move(outcome));
        }
      }
    }
  }

  // Minimization is a pure function of (representative, body) — replays run on whatever
  // worker picks them up, one bug per task.
  const auto minimize_start = ProfileClock::now();
  if (options_.minimize && !distinct.empty()) {
    result.failures.resize(distinct.size());
    pool.Run(distinct.size(), [&](size_t worker, size_t k) {
      result.failures[k] = Minimize(distinct[k], body, arenas[worker].get());
    });
  } else {
    result.failures = std::move(distinct);
  }
  result.profile.minimize_sec = SecSince(minimize_start);

  result.distinct_schedules = static_cast<int>(hashes.size());
  result.profile.total_sec = SecSince(total_start);
  for (const std::unique_ptr<WorkerArena>& arena : arenas) {
    AddRunCounters(arena->profile, &result.profile);
  }
  if (result.profile.total_sec > 0) {
    result.profile.schedules_per_sec = result.schedules_run / result.profile.total_sec;
  }
  return result;
}

}  // namespace explore
