#include "src/explore/explorer.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
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

std::vector<Decision> TrimTrailingDefaults(std::vector<Decision> decisions) {
  while (!decisions.empty() && decisions.back() == 0) {
    decisions.pop_back();
  }
  return decisions;
}

using ProfileClock = std::chrono::steady_clock;

int64_t NsSince(ProfileClock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(ProfileClock::now() - start)
      .count();
}

double SecSince(ProfileClock::time_point start) {
  return static_cast<double>(NsSince(start)) * 1e-9;
}

}  // namespace

Explorer::Explorer(ExploreOptions options) : options_(std::move(options)) {}

ScheduleOutcome Explorer::RunPlan(const Plan& plan, int schedule_index, const TestBody& body,
                                  WorkerArena& arena, trace::Tracer* capture,
                                  std::vector<ConsultRecord>* consult_log) {
  pcr::Config config = options_.base_config;
  config.seed = plan.runtime_seed;
  config.trace_events = true;  // the trace is the whole point
  config.stack_pool = &arena.stacks;

  ScheduleOutcome outcome;
  outcome.schedule_index = schedule_index;

  RecordingPerturber recorder(plan.policy);
  ReplayPerturber replayer(plan.replay);
  fault::Injector injector(plan.fault_plan);

  pcr::Runtime rt(config);
  rt.tracer().AdoptEventBuffer(std::move(arena.trace_buffer));
  TestContext ctx;
  if (plan.replay_mode) {
    rt.scheduler().set_perturber(&replayer);
  } else {
    rt.scheduler().set_perturber(&recorder);
    if (consult_log != nullptr) {
      recorder.EnableConsultLog(&rt.tracer());  // the baseline's decision-density sample
    }
  }
  if (plan.fault_plan.enabled()) {
    rt.scheduler().set_fault_injector(&injector);
  }
  const auto run_start = ProfileClock::now();
  try {
    body(rt, ctx);
  } catch (const std::exception& e) {
    ctx.Fail(std::string("uncaught exception: ") + e.what());
  }
  rt.Shutdown();
  rt.scheduler().set_perturber(nullptr);
  rt.scheduler().set_fault_injector(nullptr);
  run_ns_.fetch_add(NsSince(run_start), std::memory_order_relaxed);
  fiber_switches_.fetch_add(rt.scheduler().fiber_switches(), std::memory_order_relaxed);
  stack_acquires_.fetch_add(rt.scheduler().stack_acquires(), std::memory_order_relaxed);
  stack_pool_hits_.fetch_add(rt.scheduler().stack_pool_hits(), std::memory_order_relaxed);

  if (capture != nullptr) {
    // Symbol ids in the captured events are only meaningful against the run's own table, so
    // the capture tracer's table is replaced wholesale (SymbolTable copies rebuild the index).
    capture->symbols() = rt.tracer().symbols();
    for (const trace::Event& e : rt.tracer().view()) {
      capture->Record(e);
    }
  }

  FillOutcome(rt.tracer(), ctx, recorder.preempt_points_seen(),
              plan.replay_mode ? 0 : recorder.total_consults(), injector.fired(), schedule_index,
              &outcome);
  // Every outcome carries its repro here, passing or not: the campaign stores the repros of
  // passing replays as corpus entries.
  outcome.repro = Repro(plan.replay_mode ? replayer.consumed() : recorder.decisions(),
                        plan.runtime_seed, plan.fault_plan);
  if (consult_log != nullptr && !plan.replay_mode) {
    *consult_log = recorder.consult_log();
  }
  // Everything that reads the trace (capture, detector, hash) has run; reclaim the buffer's
  // capacity for this worker's next run. The runtime's fibers are already torn down (Shutdown
  // above), so their stacks are parked in the arena pool by now too.
  arena.trace_buffer = rt.tracer().TakeEventBuffer();
  return outcome;
}

void Explorer::FillOutcome(trace::Tracer& tracer, const TestContext& ctx,
                           uint64_t preempt_points, uint64_t total_decisions,
                           const std::vector<fault::ScriptedFault>& fired, int schedule_index,
                           ScheduleOutcome* out,
                           const TraceHasher* resume_hasher, size_t resume_events,
                           const TraceAnalyzer* resume_analyzer) {
  out->schedule_index = schedule_index;
  const auto detector_start = ProfileClock::now();
  if (resume_analyzer != nullptr) {
    // O(suffix) analysis: the detector is a left fold over the event stream, so resuming a
    // prefix-fed analyzer over events [resume_events, end) yields exactly the findings of a
    // full-trace pass (the equivalence suite checks this against from-zero mode).
    TraceAnalyzer analyzer(*resume_analyzer);
    for (const trace::Event& e : tracer.view(resume_events)) {
      analyzer.Feed(e);
    }
    out->findings = analyzer.Finish();
  } else {
    out->findings = AnalyzeTrace(tracer, options_.detector);
  }
  detector_ns_.fetch_add(NsSince(detector_start), std::memory_order_relaxed);
  std::vector<uint64_t> prefix_hashes;
  if (options_.collect_coverage) {
    prefix_hashes = TracePrefixHashes(tracer, options_.coverage_stride);
  }
  if (resume_hasher != nullptr) {
    TraceHasher hasher = *resume_hasher;
    for (const trace::Event& e : tracer.view(resume_events)) {
      hasher.Mix(e);
    }
    out->trace_hash = hasher.value();
  } else if (options_.collect_coverage) {
    out->trace_hash = prefix_hashes.back();  // covers the whole trace: one hash pass, not two
  } else {
    out->trace_hash = TraceHash(tracer);
  }
  if (options_.collect_coverage) {
    out->coverage = std::move(prefix_hashes);
    for (uint64_t& h : out->coverage) {
      h ^= options_.coverage_salt;  // scenario-scope the state fingerprints too
    }
    std::vector<uint64_t> edges = CollectTraceCoverage(tracer, options_.coverage_salt);
    out->coverage.insert(out->coverage.end(), edges.begin(), edges.end());
    std::sort(out->coverage.begin(), out->coverage.end());
    out->coverage.erase(std::unique(out->coverage.begin(), out->coverage.end()),
                        out->coverage.end());
  }
  out->failures = ctx.failures();
  if (options_.fail_on_findings) {
    for (const Finding& f : out->findings) {
      out->failures.push_back(std::string(FindingKindName(f.kind)) + ": " + f.detail);
    }
  }
  out->failed = !out->failures.empty();
  out->preempt_points = preempt_points;
  out->total_decisions = total_decisions;
  out->fired_faults = fired;
}

std::string Explorer::Repro(const std::vector<Decision>& decisions, uint64_t runtime_seed,
                            const fault::Plan& fault_plan) const {
  return EncodeRepro(options_.scenario_name, runtime_seed, TrimTrailingDefaults(decisions),
                     fault_plan.enabled() ? fault_plan.Encode() : std::string());
}

namespace {

// Fills a pruned cell from the cell that stands in for it: the trace hash is all the merge
// reads of it (see RunGroupCheckpoint in explorer.h).
void MarkPruned(const ScheduleOutcome& src, ScheduleOutcome* dst) {
  dst->trace_hash = src.trace_hash;
}

// Exec-fiber stack: holds the scenario body's own frame plus the scheduler run loop, while
// every simulated thread runs on its own fiber stack.
constexpr size_t kExecStackBytes = 256 * 1024;

// Cells covered by one child subtree rooted at tree level `level` (1-based): the product of
// the fanouts strictly below that level. Leaves (level == fanout.size()) have stride 1.
int SubtreeStride(const std::vector<int>& fanout, size_t level) {
  int stride = 1;
  for (size_t l = level; l < fanout.size(); ++l) {
    stride *= fanout[l];
  }
  return stride;
}

// A leaf run can anchor dpor pruning only when copying its outcome over a sibling is provably
// lossless: it passed with no findings and no fired faults, and its consultation log is
// complete (one record per consultation, nowhere near the recording cap).
bool WitnessEligible(const ScheduleOutcome& out, const RecordingPerturber& recorder) {
  return !out.failed && out.findings.empty() && out.fired_faults.empty() &&
         recorder.total_consults() < kMaxRecordedDecisions &&
         recorder.consult_log().size() == recorder.total_consults();
}

}  // namespace

ScheduleOutcome Explorer::RunGroupMember(const GroupPlan& group, const std::vector<int>& path,
                                         const TestBody& body, WorkerArena& arena,
                                         MemberProbe* probe) {
  pcr::Config config = options_.base_config;
  config.seed = group.runtime_seed;
  config.trace_events = true;
  config.stack_pool = &arena.stacks;

  PerturbPolicy policy;
  policy.seed = group.q0;
  policy.preempt_probability = options_.preempt_probability;
  policy.shuffle_probability = options_.shuffle_probability;
  policy.change_points = group.change_points;
  RecordingPerturber recorder(policy);
  fault::Injector injector(group.fault_plan);

  pcr::Runtime rt(config);
  rt.tracer().AdoptEventBuffer(std::move(arena.trace_buffer));
  TestContext ctx;
  rt.scheduler().set_perturber(&recorder);
  if (group.fault_plan.enabled()) {
    rt.scheduler().set_fault_injector(&injector);
  }
  if (group.dpor) {
    recorder.EnableConsultLog(&rt.tracer());
  }

  // From-zero execution of the same segmented decision stream the checkpoint path produces:
  // reseeds fire inline at the segment boundaries instead of pausing, so the recorded
  // decisions — and therefore the trace — are byte-identical between the two modes.
  const size_t levels = group.depths.size();
  int reached = 0;
  std::vector<uint64_t> fingerprints(levels + 1, 0);
  const std::function<void(int)> segment_hook = [&](int level) {
    reached = level;
    if (level == 1) {
      recorder.ReseedSegment(MixSeed(group.q0, 1, static_cast<uint64_t>(path[0])));
    } else {
      uint64_t f = TraceHash(rt.tracer());
      fingerprints[static_cast<size_t>(level)] = f;
      recorder.ReseedSegment(MixSeed(group.q0 ^ f, static_cast<uint64_t>(level),
                                     static_cast<uint64_t>(path[static_cast<size_t>(level) - 1])));
    }
  };
  recorder.SetSegmentBoundaries(group.depths);
  recorder.set_segment_hook(&segment_hook);

  const auto run_start = ProfileClock::now();
  try {
    body(rt, ctx);
  } catch (const std::exception& e) {
    ctx.Fail(std::string("uncaught exception: ") + e.what());
  }
  rt.Shutdown();
  rt.scheduler().set_perturber(nullptr);
  rt.scheduler().set_fault_injector(nullptr);
  run_ns_.fetch_add(NsSince(run_start), std::memory_order_relaxed);
  fiber_switches_.fetch_add(rt.scheduler().fiber_switches(), std::memory_order_relaxed);
  stack_acquires_.fetch_add(rt.scheduler().stack_acquires(), std::memory_order_relaxed);
  stack_pool_hits_.fetch_add(rt.scheduler().stack_pool_hits(), std::memory_order_relaxed);

  int cell = 0;
  for (size_t l = 0; l < levels; ++l) {
    cell += path[l] * SubtreeStride(group.fanout, l + 1);
  }
  ScheduleOutcome outcome;
  FillOutcome(rt.tracer(), ctx, recorder.preempt_points_seen(), recorder.total_consults(),
              injector.fired(), group.first_schedule + cell, &outcome);
  if (outcome.failed) {
    outcome.repro = Repro(recorder.decisions(), group.runtime_seed, group.fault_plan);
  }
  if (probe != nullptr) {
    probe->reached = reached;
    probe->fingerprints = fingerprints;
    probe->witness_valid = group.dpor && reached == static_cast<int>(levels) &&
                           WitnessEligible(outcome, recorder);
    if (probe->witness_valid) {
      const std::vector<ConsultRecord>& log = recorder.consult_log();
      probe->suffix.assign(log.begin() + static_cast<ptrdiff_t>(group.depths.back()), log.end());
      probe->independent_tail_event = IndependentTailStart(rt.tracer());
    } else {
      probe->suffix.clear();
      probe->independent_tail_event = 0;
    }
  }
  arena.trace_buffer = rt.tracer().TakeEventBuffer();
  return outcome;
}

void Explorer::RunGroupReplay(const GroupPlan& group, const TestBody& body,
                              std::vector<ScheduleOutcome>* outcomes, WorkerArena& arena) {
  outcomes->assign(static_cast<size_t>(group.members), ScheduleOutcome{});
  const int levels = static_cast<int>(group.depths.size());
  PerturbPolicy policy;  // ClassifyLeaf reads only the probabilities
  policy.preempt_probability = options_.preempt_probability;
  policy.shuffle_probability = options_.shuffle_probability;
  std::vector<uint64_t> sorted_points = group.change_points;
  std::sort(sorted_points.begin(), sorted_points.end());

  std::vector<int> path(static_cast<size_t>(levels), 0);

  // Processes the subtree rooted at `level` (children diverge at depths[level-1]), covering
  // cells [first_cell, first_cell + stride-of-this-node). `out` and `probe` come from the
  // already-executed run of this node's all-zeros descendant path.
  std::function<void(int, int, ScheduleOutcome&&, MemberProbe&&)> node =
      [&](int level, int first_cell, ScheduleOutcome&& out, MemberProbe&& probe) {
        const int stride = SubtreeStride(group.fanout, static_cast<size_t>(level));
        const int node_cells =
            std::min(SubtreeStride(group.fanout, static_cast<size_t>(level) - 1),
                     group.members - first_cell);
        if (probe.reached < level) {
          // The run ended before this node's boundary: no reseed below it ever applies, so
          // every cell of the subtree is the same schedule. One execution covers them all.
          (*outcomes)[static_cast<size_t>(first_cell)] = std::move(out);
          for (int m = 1; m < node_cells; ++m) {
            MarkPruned((*outcomes)[static_cast<size_t>(first_cell)],
                       &(*outcomes)[static_cast<size_t>(first_cell + m)]);
          }
          if (node_cells > 1) {
            pruned_.fetch_add(node_cells - 1, std::memory_order_relaxed);
          }
          return;
        }
        if (level == levels) {
          // Leaf parent: child 0 is the executed witness; classify each sibling's decision
          // stream against its consultation log before paying for a run (sleep-set pruning).
          (*outcomes)[static_cast<size_t>(first_cell)] = std::move(out);
          LeafWitness witness{probe.suffix.data(), probe.suffix.size(),
                              probe.independent_tail_event};
          const uint64_t f = probe.fingerprints[static_cast<size_t>(levels)];
          for (int j = 1; j < node_cells; ++j) {
            if (group.dpor && probe.witness_valid) {
              LeafVerdict v =
                  ClassifyLeaf(MixSeed(group.q0 ^ f, static_cast<uint64_t>(levels),
                                       static_cast<uint64_t>(j)),
                               policy, sorted_points, witness);
              if (v != LeafVerdict::kExecute) {
                MarkPruned((*outcomes)[static_cast<size_t>(first_cell)],
                           &(*outcomes)[static_cast<size_t>(first_cell + j)]);
                pruned_.fetch_add(1, std::memory_order_relaxed);
                if (v == LeafVerdict::kIdenticalPrune) {
                  dpor_pruned_.fetch_add(1, std::memory_order_relaxed);
                } else {
                  drain_spliced_.fetch_add(1, std::memory_order_relaxed);
                }
                continue;
              }
            }
            path[static_cast<size_t>(levels) - 1] = j;
            (*outcomes)[static_cast<size_t>(first_cell + j)] =
                RunGroupMember(group, path, body, arena, nullptr);
          }
          path[static_cast<size_t>(levels) - 1] = 0;
          return;
        }
        // Inner node: fingerprint at the children's divergence depth -> child that first
        // produced it, within this node only. The reseed below is a pure function of
        // (q0, fingerprint, coordinate), so matching fingerprints guarantee identical
        // continuations — pruning is exact, and both execution modes prune the same cells.
        std::vector<std::pair<uint64_t, int>> seen_f;
        for (int c = 0; c < group.fanout[static_cast<size_t>(level) - 1]; ++c) {
          int child_first = first_cell + c * stride;
          if (child_first >= group.members) {
            break;
          }
          int cells = std::min(stride, group.members - child_first);
          path[static_cast<size_t>(level) - 1] = c;
          ScheduleOutcome child_out;
          MemberProbe child_probe;
          if (c == 0) {
            child_out = std::move(out);
            child_probe = std::move(probe);
          } else {
            child_out = RunGroupMember(group, path, body, arena, &child_probe);
          }
          if (child_probe.reached >= level + 1) {
            const uint64_t f = child_probe.fingerprints[static_cast<size_t>(level) + 1];
            int duplicate_of = -1;
            for (const auto& [known, source] : seen_f) {
              if (known == f) {
                duplicate_of = source;
                break;
              }
            }
            if (duplicate_of >= 0) {
              // Same prefix fingerprint at the child boundary: identical continuations, so
              // copy that child's cells (the probe run just executed is discarded — the
              // checkpoint path detects the match before running any descendant, and pruned
              // counts must agree between modes).
              int src = first_cell + duplicate_of * stride;
              for (int j = 0; j < cells; ++j) {
                MarkPruned((*outcomes)[static_cast<size_t>(src + j)],
                           &(*outcomes)[static_cast<size_t>(child_first + j)]);
              }
              pruned_.fetch_add(cells, std::memory_order_relaxed);
              continue;
            }
            seen_f.emplace_back(f, c);
          }
          node(level + 1, child_first, std::move(child_out), std::move(child_probe));
        }
        path[static_cast<size_t>(level) - 1] = 0;
      };

  MemberProbe probe;
  ScheduleOutcome first = RunGroupMember(group, path, body, arena, &probe);
  node(1, 0, std::move(first), std::move(probe));
}

bool Explorer::RunGroupCheckpoint(const GroupPlan& group, const TestBody& body,
                                  std::vector<ScheduleOutcome>* outcomes, WorkerArena& arena) {
  outcomes->assign(static_cast<size_t>(group.members), ScheduleOutcome{});

  pcr::Config config = options_.base_config;
  config.seed = group.runtime_seed;
  config.trace_events = true;
  config.stack_pool = &arena.stacks;

  PerturbPolicy policy;
  policy.seed = group.q0;
  policy.preempt_probability = options_.preempt_probability;
  policy.shuffle_probability = options_.shuffle_probability;
  policy.change_points = group.change_points;
  // Host-frame run state: the scheduler holds pointers to these, and branching restores them
  // by copy-assignment (their addresses never change, only their contents rewind).
  RecordingPerturber recorder(policy);
  fault::Injector injector(group.fault_plan);

  pcr::Runtime rt(config);
  rt.tracer().AdoptEventBuffer(std::move(arena.trace_buffer));
  TestContext ctx;
  rt.scheduler().set_perturber(&recorder);
  if (group.fault_plan.enabled()) {
    rt.scheduler().set_fault_injector(&injector);
  }
  if (group.dpor) {
    // The consultation log is plain recorder state, so the copy-assign restores below rewind
    // it in lockstep with the decisions — leaf 0's log is identical to from-zero mode's.
    recorder.EnableConsultLog(&rt.tracer());
  }

  // The body runs on a dedicated exec fiber so the host frame can snapshot it mid-run: at a
  // segment boundary the recorder parks the simulation (CheckpointPause), the scheduler fires
  // the checkpoint hook from the exec stack, and the hook suspends the exec fiber — leaving
  // every fiber quiescent with the host in control.
  int pause_level = 0;
  const std::function<void(int)> segment_hook = [&](int level) {
    pause_level = level;
    rt.scheduler().CheckpointPause();
  };
  recorder.SetSegmentBoundaries(group.depths);
  recorder.set_segment_hook(&segment_hook);

  pcr::Fiber exec(
      [&] {
        try {
          try {
            body(rt, ctx);
          } catch (const std::exception& e) {
            ctx.Fail(std::string("uncaught exception: ") + e.what());
          }
          rt.Shutdown();
        } catch (const pcr::CheckpointAbort&) {
          // Group abandoned with this execution suspended mid-run: unwind quietly; the host
          // already shut the simulated threads down.
        }
      },
      arena.stacks.Acquire(kExecStackBytes), &arena.stacks);
  rt.scheduler().set_checkpoint_hook([&exec] { exec.Suspend(); });

  // A fiber can pause mid-unwind: ~MonitorGuard's Exit charges virtual time. The exception in
  // flight is heap state plus a per-OS-thread count that no Checkpoint rewinds, so such a
  // pause is neither snapshotted nor restored past — the group is recomputed from zero.
  struct ExceptionInFlight {};
  auto resume_exec = [&exec] {
    exec.Resume();
    if (!exec.finished() && std::uncaught_exceptions() > 0) {
      throw ExceptionInFlight{};
    }
  };

  int64_t group_saves = 0;
  int64_t group_resumes = 0;
  int64_t group_bytes = 0;
  int64_t group_pruned = 0;

  auto fill_cell = [&](int cell, const TraceHasher* resume_hasher = nullptr,
                       size_t resume_events = 0,
                       const TraceAnalyzer* resume_analyzer = nullptr) {
    ScheduleOutcome& out = (*outcomes)[static_cast<size_t>(cell)];
    FillOutcome(rt.tracer(), ctx, recorder.preempt_points_seen(), recorder.total_consults(),
                injector.fired(), group.first_schedule + cell, &out, resume_hasher,
                resume_events, resume_analyzer);
    if (out.failed) {
      out.repro = Repro(recorder.decisions(), group.runtime_seed, group.fault_plan);
    }
  };

  const int levels = static_cast<int>(group.depths.size());
  std::vector<uint64_t> sorted_points = group.change_points;
  std::sort(sorted_points.begin(), sorted_points.end());

  // Host-frame snapshot taken alongside each checkpoint: the run state the scheduler's
  // pointers refer to, plus the incremental trace folds carried to the pause point. The
  // checkpoint is the last member so it is destroyed first (nothing here depends on it).
  struct NodeState {
    RecordingPerturber recorder;
    fault::Injector injector;
    TestContext ctx;
    TraceHasher hasher;
    TraceAnalyzer analyzer;
    size_t events = 0;
    uint64_t fingerprint = 0;
    std::unique_ptr<pcr::Checkpoint> ckpt;
  };

  // Folds the events since `base` into a fresh NodeState (no checkpoint yet: siblings with a
  // duplicate fingerprint are pruned before a snapshot is spent on them).
  auto fold_node = [&](const TraceHasher& base_hasher, const TraceAnalyzer& base_analyzer,
                       size_t base_events) {
    NodeState n{recorder, injector, ctx, base_hasher, base_analyzer, 0, 0, nullptr};
    for (const trace::Event& e : rt.tracer().view(base_events)) {
      n.hasher.Mix(e);
      n.analyzer.Feed(e);
    }
    n.events = rt.tracer().size();
    n.fingerprint = n.hasher.value();
    return n;
  };
  auto snapshot_node = [&](NodeState* n) {
    n->ckpt = std::make_unique<pcr::Checkpoint>(rt.scheduler(), rt.tracer(), &exec);
    ++group_saves;
    group_bytes += static_cast<int64_t>(n->ckpt->bytes());
  };

  int64_t group_dpor = 0;
  int64_t group_splice = 0;

  // Processes the subtree rooted at `level`: the execution is paused at depths[level-1] in the
  // state `at` snapshots, and the node covers cells [first_cell, first_cell + its stride).
  // Child NodeStates live inside one loop iteration, so checkpoints die newest-first (LIFO
  // fiber pins) before the parent's next restore.
  std::function<void(int, int, NodeState&)> descend = [&](int level, int first_cell,
                                                          NodeState& at) {
    const int stride = SubtreeStride(group.fanout, static_cast<size_t>(level));
    const bool leaf_level = level == levels;
    std::vector<std::pair<uint64_t, int>> seen_f;  // child-boundary fingerprint -> child index
    // Leaf-parent witness: child 0's consultation suffix, copied out before any restore
    // rewinds the recorder's log.
    bool witness_valid = false;
    std::vector<ConsultRecord> wit_suffix;
    uint64_t wit_estar = 0;
    for (int c = 0; c < group.fanout[static_cast<size_t>(level) - 1]; ++c) {
      int child_first = first_cell + c * stride;
      if (child_first >= group.members) {
        break;
      }
      int cells = std::min(stride, group.members - child_first);
      uint64_t child_seed = level == 1
                                ? MixSeed(group.q0, 1, static_cast<uint64_t>(c))
                                : MixSeed(group.q0 ^ at.fingerprint,
                                          static_cast<uint64_t>(level),
                                          static_cast<uint64_t>(c));
      if (leaf_level && c > 0 && group.dpor && witness_valid) {
        // Sleep-set check before paying for restore + suffix: pre-simulate this leaf's
        // decision stream over the witness's consultation log.
        LeafVerdict v = ClassifyLeaf(child_seed, policy, sorted_points,
                                     {wit_suffix.data(), wit_suffix.size(), wit_estar});
        if (v != LeafVerdict::kExecute) {
          MarkPruned((*outcomes)[static_cast<size_t>(first_cell)],
                     &(*outcomes)[static_cast<size_t>(child_first)]);
          ++group_pruned;
          ++(v == LeafVerdict::kIdenticalPrune ? group_dpor : group_splice);
          continue;
        }
      }
      if (c > 0) {
        at.ckpt->Restore();
        ++group_resumes;
        recorder = at.recorder;
        injector = at.injector;
        ctx = at.ctx;
      }
      recorder.ReseedSegment(child_seed);
      pause_level = 0;
      const auto seg_start = ProfileClock::now();
      resume_exec();
      run_ns_.fetch_add(NsSince(seg_start), std::memory_order_relaxed);
      if (exec.finished()) {
        // Ran to completion: at leaf level that is the schedule itself (stride 1); at an inner
        // level the deeper reseeds never applied, so one schedule covers the whole subtree.
        fill_cell(child_first, &at.hasher, at.events, &at.analyzer);
        for (int j = 1; j < cells; ++j) {
          MarkPruned((*outcomes)[static_cast<size_t>(child_first)],
                     &(*outcomes)[static_cast<size_t>(child_first + j)]);
        }
        group_pruned += cells - 1;
        if (leaf_level && c == 0 && group.dpor) {
          witness_valid = WitnessEligible((*outcomes)[static_cast<size_t>(child_first)],
                                          recorder) &&
                          recorder.consult_log().size() > group.depths.back();
          if (witness_valid) {
            const std::vector<ConsultRecord>& log = recorder.consult_log();
            wit_suffix.assign(log.begin() + static_cast<ptrdiff_t>(group.depths.back()),
                              log.end());
            wit_estar = IndependentTailStart(rt.tracer());
          }
        }
        continue;
      }
      // Paused at depths[level]: fingerprint the trace prefix incrementally and dedup against
      // siblings before spending a checkpoint on it. The reseed below the pause is a pure
      // function of (q0, fingerprint, coordinate), so matching fingerprints guarantee
      // identical continuations — the paused execution is abandoned; the next sibling (or the
      // group epilogue) rewinds past it.
      NodeState child = fold_node(at.hasher, at.analyzer, at.events);
      int duplicate_of = -1;
      for (const auto& [known, source] : seen_f) {
        if (known == child.fingerprint) {
          duplicate_of = source;
          break;
        }
      }
      if (duplicate_of >= 0) {
        int src = first_cell + duplicate_of * stride;
        for (int j = 0; j < cells; ++j) {
          MarkPruned((*outcomes)[static_cast<size_t>(src + j)],
                     &(*outcomes)[static_cast<size_t>(child_first + j)]);
        }
        group_pruned += cells;
        continue;
      }
      seen_f.emplace_back(child.fingerprint, c);
      snapshot_node(&child);
      descend(level + 1, child_first, child);
    }
  };

  // Phase 1: execute the shared prefix up to the first boundary, then branch.
  std::unique_ptr<NodeState> root;
  bool exception_in_flight = false;
  try {
    const auto prefix_start = ProfileClock::now();
    resume_exec();
    run_ns_.fetch_add(NsSince(prefix_start), std::memory_order_relaxed);
    if (exec.finished()) {
      // The whole run consults fewer than depths[0] decisions: every member is the same
      // schedule.
      fill_cell(0);
      for (int m = 1; m < group.members; ++m) {
        MarkPruned((*outcomes)[0], &(*outcomes)[static_cast<size_t>(m)]);
      }
      group_pruned = group.members - 1;
    } else {
      // Paused at depths[0]. Snapshot the simulation plus the host-frame run state.
      root = std::make_unique<NodeState>(
          fold_node(TraceHasher{}, TraceAnalyzer(options_.detector), 0));
      snapshot_node(root.get());
      descend(1, 0, *root);
    }
  } catch (const ExceptionInFlight&) {
    // Inner-node checkpoints died newest-first in the unwind. Finish the paused run without
    // further pauses — shutting it down here would throw ThreadKilled out of the destructor
    // that is mid-unwind — and let the caller recompute the group from zero.
    exception_in_flight = true;
    recorder.set_segment_hook(nullptr);
    const auto drain_start = ProfileClock::now();
    exec.Resume();
    run_ns_.fetch_add(NsSince(drain_start), std::memory_order_relaxed);
  }

  if (!exec.finished()) {
    // The last branch was pruned at its pause point: kill the simulated threads from the host,
    // then unwind the suspended body via CheckpointAbort.
    const auto teardown_start = ProfileClock::now();
    rt.Shutdown();
    rt.scheduler().RequestCheckpointAbort();
    exec.Resume();
    run_ns_.fetch_add(NsSince(teardown_start), std::memory_order_relaxed);
  }
  root.reset();  // inner-node checkpoints already died inside descend (newest-first)
  rt.scheduler().set_checkpoint_hook(nullptr);
  rt.scheduler().set_perturber(nullptr);
  rt.scheduler().set_fault_injector(nullptr);

  fiber_switches_.fetch_add(rt.scheduler().fiber_switches(), std::memory_order_relaxed);
  stack_acquires_.fetch_add(rt.scheduler().stack_acquires(), std::memory_order_relaxed);
  stack_pool_hits_.fetch_add(rt.scheduler().stack_pool_hits(), std::memory_order_relaxed);
  checkpoint_saves_.fetch_add(group_saves, std::memory_order_relaxed);
  checkpoint_resumes_.fetch_add(group_resumes, std::memory_order_relaxed);
  checkpoint_bytes_.fetch_add(group_bytes, std::memory_order_relaxed);
  arena.trace_buffer = rt.tracer().TakeEventBuffer();
  if (exception_in_flight) {
    return false;  // the outcomes and pruning counts come from the from-zero recompute
  }
  pruned_.fetch_add(group_pruned, std::memory_order_relaxed);
  dpor_pruned_.fetch_add(group_dpor, std::memory_order_relaxed);
  drain_spliced_.fetch_add(group_splice, std::memory_order_relaxed);
  return true;
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
                                   WorkerArena* arena) {
  WorkerArena local;
  WorkerArena& warm = arena != nullptr ? *arena : local;
  std::string scenario;
  uint64_t runtime_seed = 0;
  std::vector<Decision> decisions;
  std::string fault_text;
  if (!DecodeRepro(outcome.repro, &scenario, &runtime_seed, &decisions, &fault_text)) {
    return outcome;  // shouldn't happen: we produced the string ourselves
  }
  fault::Plan fault_plan = fault::Plan::Decode(fault_text);

  int replays_left = 128;
  auto still_fails = [&](const std::vector<Decision>& candidate,
                         const fault::Plan& candidate_faults, ScheduleOutcome* result) {
    if (replays_left <= 0) {
      return false;
    }
    --replays_left;
    Plan plan;
    plan.runtime_seed = runtime_seed;
    plan.replay = candidate;
    plan.replay_mode = true;
    plan.fault_plan = candidate_faults;
    ScheduleOutcome attempt = RunPlan(plan, outcome.schedule_index, body, warm);
    if (SameFailure(outcome, attempt)) {
      *result = std::move(attempt);
      return true;
    }
    return false;
  };

  ScheduleOutcome best = outcome;
  std::vector<Decision> current = decisions;
  fault::Plan current_faults = fault_plan;

  // Phase 1: binary-search the shortest failing prefix (defaults past the cut).
  size_t lo = 0;
  size_t hi = current.size();
  while (lo < hi && replays_left > 0) {
    size_t mid = lo + (hi - lo) / 2;
    std::vector<Decision> prefix(current.begin(), current.begin() + mid);
    ScheduleOutcome attempt;
    if (still_fails(prefix, current_faults, &attempt)) {
      hi = mid;
      best = std::move(attempt);
    } else {
      lo = mid + 1;
    }
  }
  current.resize(std::min(current.size(), hi));

  // Phase 2: zero individual non-default decisions, last first (late perturbations are the
  // likeliest to be incidental).
  for (size_t i = current.size(); i-- > 0 && replays_left > 0;) {
    if (current[i] == 0) {
      continue;
    }
    std::vector<Decision> candidate = current;
    candidate[i] = 0;
    ScheduleOutcome attempt;
    if (still_fails(candidate, current_faults, &attempt)) {
      current = std::move(candidate);
      best = std::move(attempt);
    }
  }

  // Phase 3: pin a probabilistic plan down to a script of exactly the faults that fired in the
  // current best run. The injector draws the RNG only at armed sites, so the script reproduces
  // the identical firings — the repro then names its faults instead of hiding them in a seed.
  if (current_faults.rate > 0 && replays_left > 0) {
    fault::Plan scripted;
    scripted.script = best.fired_faults;
    ScheduleOutcome attempt;
    if (still_fails(current, scripted, &attempt)) {
      current_faults = std::move(scripted);
      best = std::move(attempt);
    }
  }

  // Phase 4: drop scripted faults one at a time, last first, keeping only the ones the
  // failure actually needs.
  for (size_t i = current_faults.script.size(); i-- > 0 && replays_left > 0;) {
    fault::Plan candidate = current_faults;
    candidate.script.erase(candidate.script.begin() + static_cast<ptrdiff_t>(i));
    ScheduleOutcome attempt;
    if (still_fails(current, candidate, &attempt)) {
      current_faults = std::move(candidate);
      best = std::move(attempt);
    }
  }
  return best;
}

ScheduleOutcome Explorer::Replay(const std::string& repro, const TestBody& body,
                                 trace::Tracer* capture, WorkerArena* arena) {
  std::string scenario;
  std::string fault_text;
  Plan plan;
  plan.replay_mode = true;
  if (!DecodeRepro(repro, &scenario, &plan.runtime_seed, &plan.replay, &fault_text)) {
    throw pcr::UsageError("malformed repro string: " + repro);
  }
  plan.fault_plan = fault::Plan::Decode(fault_text);  // throws UsageError on a bad field
  WorkerArena local;
  return RunPlan(plan, -1, body, arena != nullptr ? *arena : local, capture);
}

ExploreResult Explorer::Explore(const TestBody& body) {
  ExploreResult result;
  std::unordered_set<uint64_t> hashes;
  run_ns_.store(0, std::memory_order_relaxed);
  detector_ns_.store(0, std::memory_order_relaxed);
  fiber_switches_.store(0, std::memory_order_relaxed);
  stack_acquires_.store(0, std::memory_order_relaxed);
  stack_pool_hits_.store(0, std::memory_order_relaxed);
  checkpoint_saves_.store(0, std::memory_order_relaxed);
  checkpoint_resumes_.store(0, std::memory_order_relaxed);
  checkpoint_bytes_.store(0, std::memory_order_relaxed);
  pruned_.store(0, std::memory_order_relaxed);
  dpor_pruned_.store(0, std::memory_order_relaxed);
  drain_spliced_.store(0, std::memory_order_relaxed);
  const auto total_start = ProfileClock::now();

  auto note_hash = [&hashes](uint64_t h) { hashes.insert(h); };

  // One arena per pool worker, alive for the whole Explore call: each worker's schedules
  // inherit its predecessor's stack pool and trace-buffer capacity instead of paying mmap +
  // mprotect + heap growth per Runtime. Outcome bytes cannot depend on which arena served a
  // schedule (see WorkerArena).
  int workers = options_.workers > 0 ? options_.workers : WorkerPool::HardwareWorkers();
  WorkerPool pool(workers);
  std::vector<std::unique_ptr<WorkerArena>> arenas;
  arenas.reserve(static_cast<size_t>(pool.workers()));
  for (int w = 0; w < pool.workers(); ++w) {
    arenas.push_back(std::make_unique<WorkerArena>());
  }

  // Schedule 0: the unperturbed baseline. Its horizon seeds PCT change-point placement. It
  // runs on the calling thread, which is pool worker 0.
  Plan baseline_plan;
  baseline_plan.runtime_seed = options_.base_config.seed;
  baseline_plan.fault_plan = options_.fault_plan;  // verbatim: the reference fault run
  std::vector<ConsultRecord> baseline_log;
  result.baseline = RunPlan(baseline_plan, 0, body, *arenas[0], nullptr, &baseline_log);
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
    group.group_index = g;
    group.first_schedule = 1 + g * per_group;
    group.fanout = fanout;
    group.members = std::min(per_group, options_.budget - group.first_schedule);
    group.runtime_seed =
        options_.sweep_runtime_seed ? (master() | 1) : options_.base_config.seed;
    group.q0 = master();
    // PCT-style depth: group g gets g % 4 guaranteed change points within the baseline
    // horizon. Depth cycles 0..3 so shallow bugs are not starved by deep probing.
    int depth = g % 4;
    for (int d = 0; d < depth; ++d) {
      group.change_points.push_back(master() % horizon);
    }
    // The master RNG is stepped for fault seeds only when a fault plan is set, so fault-free
    // Explore calls keep drawing the same seed stream whether or not faults are in play.
    if (options_.fault_plan.enabled()) {
      group.fault_plan = options_.fault_plan;
      if (options_.sweep_fault_seed) {
        group.fault_plan.seed = master();
      }
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
  // but its worker's arena, so groups are embarrassingly parallel; outcomes land in their slot
  // by index. Groups (not schedules) being the work unit is what keeps the pool busy: one
  // coarse unit per dispatch instead of one microsecond-scale run.
  const bool use_checkpoint = options_.checkpoint && pcr::Checkpoint::Supported();
  std::vector<std::vector<ScheduleOutcome>> group_outcomes(groups.size());
  const auto sweep_start = ProfileClock::now();
  pool.Run(groups.size(), [&](size_t worker, size_t g) {
    WorkerArena& arena = *arenas[worker];
    if (!use_checkpoint || !RunGroupCheckpoint(groups[g], body, &group_outcomes[g], arena)) {
      RunGroupReplay(groups[g], body, &group_outcomes[g], arena);
    }
  });
  result.profile.sweep_sec = SecSince(sweep_start);

  // Deterministic merge in schedule-index order: identical hashes, dedup decisions and cutoff
  // at any worker count. Outcomes past the max_failures cutoff were executed but are not
  // consumed, matching the serial explorer's early stop.
  std::vector<ScheduleOutcome> distinct;  // unminimized representative per bug
  if (result.baseline.failed) {
    distinct.push_back(result.baseline);
  }
  for (size_t g = 0; g < group_outcomes.size() && distinct.size() < options_.max_failures;
       ++g) {
    for (size_t k = 0;
         k < group_outcomes[g].size() && distinct.size() < options_.max_failures; ++k) {
      ScheduleOutcome& outcome = group_outcomes[g][k];
      ++result.schedules_run;
      note_hash(outcome.trace_hash);
      if (outcome.failed) {
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
  result.profile.run_sec =
      static_cast<double>(run_ns_.load(std::memory_order_relaxed)) * 1e-9;
  result.profile.detector_sec =
      static_cast<double>(detector_ns_.load(std::memory_order_relaxed)) * 1e-9;
  result.profile.fiber_switches = fiber_switches_.load(std::memory_order_relaxed);
  result.profile.stack_acquires = stack_acquires_.load(std::memory_order_relaxed);
  result.profile.stack_pool_hits = stack_pool_hits_.load(std::memory_order_relaxed);
  result.profile.checkpoint_saves = checkpoint_saves_.load(std::memory_order_relaxed);
  result.profile.checkpoint_resumes = checkpoint_resumes_.load(std::memory_order_relaxed);
  result.profile.checkpoint_bytes = checkpoint_bytes_.load(std::memory_order_relaxed);
  result.profile.pruned_schedules = pruned_.load(std::memory_order_relaxed);
  result.profile.dpor_pruned = dpor_pruned_.load(std::memory_order_relaxed);
  result.profile.drain_spliced = drain_spliced_.load(std::memory_order_relaxed);
  if (result.profile.total_sec > 0) {
    result.profile.schedules_per_sec = result.schedules_run / result.profile.total_sec;
  }
  return result;
}

}  // namespace explore
