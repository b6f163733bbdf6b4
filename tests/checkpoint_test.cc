// Checkpoint-and-branch equivalence: ExploreOptions::checkpoint changes how schedules are
// executed (snapshot at the group's divergence points, replay only the suffix), never what
// they compute. Every scenario must produce byte-identical results — trace hashes, failure
// lists, repro strings, schedule counts, pruned counts — with checkpointing on and off, and
// the checkpointed explorer must stay worker-count invariant. In builds where
// pcr::Checkpoint::Supported() is false (ucontext fibers, sanitizers) the checkpoint option
// silently falls back to from-zero execution, so these tests still pass — they just compare
// the fallback against itself.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "examples/example_scenarios.h"
#include "src/explore/explorer.h"
#include "src/explore/scenarios.h"
#include "src/fault/fault.h"
#include "src/pcr/checkpoint.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "tests/allocation_counter.h"

namespace {

using explore::ExploreOptions;
using explore::ExploreResult;
using explore::Explorer;

// Everything the explorer reports must agree field-for-field, including how many schedules
// were pruned by state-hash dedup — both modes must prune exactly the same cells.
void ExpectSameResult(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.schedules_run, b.schedules_run);
  EXPECT_EQ(a.distinct_schedules, b.distinct_schedules);
  EXPECT_EQ(a.baseline.trace_hash, b.baseline.trace_hash);
  EXPECT_EQ(a.baseline.failed, b.baseline.failed);
  EXPECT_EQ(a.baseline.repro, b.baseline.repro);
  EXPECT_EQ(a.profile.pruned_schedules, b.profile.pruned_schedules);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].schedule_index, b.failures[i].schedule_index) << "failure " << i;
    EXPECT_EQ(a.failures[i].trace_hash, b.failures[i].trace_hash) << "failure " << i;
    EXPECT_EQ(a.failures[i].repro, b.failures[i].repro) << "failure " << i;
    EXPECT_EQ(a.failures[i].failures, b.failures[i].failures) << "failure " << i;
  }
}

ExploreResult ExploreScenario(const explore::BugScenario& scenario, bool checkpoint,
                              int workers = 1, int budget = -1) {
  ExploreOptions options = scenario.options;
  options.checkpoint = checkpoint;
  options.workers = workers;
  if (budget > 0) {
    options.budget = budget;
  }
  Explorer explorer(options);
  return explorer.Explore(scenario.body);
}

TEST(CheckpointEquivalenceTest, EveryCannedScenarioMatchesFromZero) {
  for (const char* name : {"buggy_monitor", "good_monitor", "missing_notify", "weakmem_race"}) {
    const explore::BugScenario* scenario = explore::FindScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    ExploreResult with = ExploreScenario(*scenario, /*checkpoint=*/true);
    ExploreResult without = ExploreScenario(*scenario, /*checkpoint=*/false);
    SCOPED_TRACE(name);
    ExpectSameResult(with, without);
    EXPECT_EQ(scenario->expect_bug, !with.failures.empty()) << name;
  }
}

// The deep geometry tier (budget >= 1024: more branches and leaves per checkpoint) must also
// be equivalent — it exercises repeated leaf restores and the abandoned-branch epilogue.
TEST(CheckpointEquivalenceTest, DeepGeometryMatchesFromZero) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  ExploreResult with = ExploreScenario(*scenario, /*checkpoint=*/true, 1, 1100);
  ExploreResult without = ExploreScenario(*scenario, /*checkpoint=*/false, 1, 1100);
  ExpectSameResult(with, without);
}

// Example workloads register with checkpoint_safe=false (heap state a restore cannot rewind),
// which must force options.checkpoint off at registration — exploring them with the registered
// options has to equal an explicit from-zero run, and must not crash.
TEST(CheckpointEquivalenceTest, ExampleBodiesHonorCheckpointSafety) {
  examples::RegisterExampleExploreScenarios();
  int seen = 0;
  for (const explore::BugScenario& scenario : explore::Scenarios()) {
    if (scenario.name.rfind("example_", 0) != 0) {
      continue;
    }
    ++seen;
    EXPECT_FALSE(scenario.options.checkpoint) << scenario.name;
    ExploreResult as_registered = ExploreScenario(scenario, scenario.options.checkpoint);
    ExploreResult from_zero = ExploreScenario(scenario, /*checkpoint=*/false);
    SCOPED_TRACE(scenario.name);
    ExpectSameResult(as_registered, from_zero);
  }
  EXPECT_EQ(seen, 5) << "all example workloads should be registered";
}

// Injected thread death unwinds through ~MonitorGuard, whose Exit charges virtual time, so a
// segment boundary can pause a fiber mid-unwind. No Checkpoint may be taken (or restored past)
// there: the exception in flight is heap state plus a per-OS-thread count that stack restore
// cannot rewind. The explorer recomputes such a group from zero, so both modes still agree.
TEST(CheckpointEquivalenceTest, ThreadDeathMidUnwindMatchesFromZero) {
  for (const char* name : {"good_monitor", "buggy_monitor"}) {
    const explore::BugScenario* scenario = explore::FindScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    explore::BugScenario faulted = *scenario;
    faulted.options.fault_plan =
        fault::Plan::Decode("f1,rate=0.02,sites=thread-death+notify-lost,seed=3");
    SCOPED_TRACE(name);
    for (int workers : {1, 4}) {
      ExploreResult with = ExploreScenario(faulted, /*checkpoint=*/true, workers);
      ExploreResult without = ExploreScenario(faulted, /*checkpoint=*/false, workers);
      ExpectSameResult(with, without);
    }
  }
}

// A charge may advance the clock in place only while it ends before the active RunFor
// deadline. That deadline belongs to the run-loop frame a checkpoint rewinds, so it must rewind
// with it: a restore into the first RunFor, made after the second one raised the deadline, must
// still stop the first RunFor at its own deadline (1800 us, inside the first quantum).
TEST(CheckpointEquivalenceTest, RunDeadlineRewindsWithTheRunLoop) {
  ExploreOptions options;
  options.scenario_name = "run_deadline";
  options.budget = 1100;
  options.seed = 7;
  explore::TestBody body = [](pcr::Runtime& rt, explore::TestContext& ctx) {
    pcr::MonitorLock lock(rt.scheduler(), "m");
    for (int t = 0; t < 3; ++t) {
      rt.Fork([&lock] {
        for (int i = 0; i < 60; ++i) {
          pcr::MonitorGuard guard(lock);
          pcr::thisthread::Compute(7);
        }
      });
    }
    rt.RunFor(1800);
    ctx.Check(rt.now() == 1800, "first RunFor overran its deadline");
    rt.RunFor(20 * pcr::kUsecPerMsec);
    rt.Shutdown();
  };
  auto run = [&](bool checkpoint) {
    ExploreOptions mode = options;
    mode.checkpoint = checkpoint;
    return Explorer(mode).Explore(body);
  };
  ExploreResult with = run(true);
  ExploreResult without = run(false);
  ExpectSameResult(with, without);
  EXPECT_TRUE(with.failures.empty());
  EXPECT_TRUE(without.failures.empty());
}

// A checkpoint-safe body whose thread owns runtime objects on its own frame: it blocks for good
// in WAIT on a monitor and CV declared there, so it still owns both when the body shuts the
// runtime down. Two more threads contend on the body's monitor past the end of the run, which
// gives the explorer decisions to branch on. After its own Shutdown the body checks that the
// threads ended, whether Shutdown killed them (from zero) or discarded them (checkpointed).
void FrameObjectsAtShutdownBody(pcr::Runtime& rt, explore::TestContext& ctx) {
  pcr::MonitorLock shared(rt.scheduler(), "shared");
  int entries = 0;
  rt.Fork([&rt] {
    pcr::MonitorLock own(rt.scheduler(), "monitor-on-a-blocked-frame");
    pcr::Condition never(own, "condition-on-a-blocked-frame", -1);
    pcr::MonitorGuard guard(own);
    never.Wait();  // nobody notifies
  });
  for (int t = 0; t < 2; ++t) {
    rt.Fork([&shared, &entries] {
      for (int i = 0; i < 40; ++i) {
        pcr::MonitorGuard g(shared);
        pcr::thisthread::Compute(90);
        ++entries;
      }
    });
  }
  rt.RunFor(5 * pcr::kUsecPerMsec);
  rt.Shutdown();
  ctx.Check(rt.scheduler().live_threads() == 0, "a thread is live after Shutdown");
  ctx.Check(rt.quiescent_info().all_threads_done, "a thread is not done after Shutdown");
}

ExploreOptions FrameObjectsAtShutdownOptions() {
  ExploreOptions options;
  options.scenario_name = "frame_objects_at_shutdown";
  options.budget = 300;
  options.base_config.quantum = pcr::kUsecPerMsec;
  options.workers = 1;
  return options;
}

// Under a checkpoint walk Shutdown discards the threads instead of killing them, and must still
// leave every thread done and none live, as the kill does: the body's own checks fail otherwise.
TEST(CheckpointEquivalenceTest, ShutdownWithFrameObjectsMatchesFromZero) {
  auto run = [](bool checkpoint) {
    ExploreOptions options = FrameObjectsAtShutdownOptions();
    options.checkpoint = checkpoint;
    return Explorer(options).Explore(FrameObjectsAtShutdownBody);
  };
  ExploreResult with = run(true);
  ExploreResult without = run(false);
  ExpectSameResult(with, without);
  EXPECT_FALSE(with.baseline.failed);
  EXPECT_TRUE(with.failures.empty());
  if (pcr::Checkpoint::Supported()) {
    EXPECT_GT(with.profile.checkpoint_resumes, 0) << "no run was checkpointed";
  }
}

// A discarded frame never runs its destructors. The heap its monitor and CV own is freed only
// because Checkpointables still registered on discarded frames are torn down before their
// stacks are released (by a restore, or with the runtime). Checkpoints are off under ASan, so
// LeakSanitizer never sees this path: this count is its leak check.
TEST(CheckpointShutdownTest, DiscardedFramesLeaveNoHeapBehind) {
  if (!pcr::Checkpoint::Supported()) {
    GTEST_SKIP() << "checkpointing is unsupported in this build";
  }
  auto explore = [] {
    Explorer(FrameObjectsAtShutdownOptions()).Explore(FrameObjectsAtShutdownBody);
  };
  explore();  // warm-up: this thread's checkpoint bookkeeping reaches its capacity
  const testing_support::AllocationCounts counts = testing_support::CountAllocations(explore);
  EXPECT_GT(counts.news, 0);
  EXPECT_EQ(counts.net(), 0) << counts.news << " news, " << counts.deletes << " deletes";
}

TEST(CheckpointGuardTest, RefusesSnapshotWhileAnExceptionIsInFlight) {
  if (!pcr::Checkpoint::Supported()) {
    GTEST_SKIP() << "checkpointing is unsupported in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  struct SnapshotDuringUnwind {
    pcr::Runtime& rt;
    ~SnapshotDuringUnwind() { pcr::Checkpoint ckpt(rt.scheduler(), rt.tracer(), nullptr); }
  };
  EXPECT_DEATH(
      {
        pcr::Runtime rt;
        try {
          SnapshotDuringUnwind snapshot{rt};
          throw std::runtime_error("in flight");
        } catch (const std::runtime_error&) {
        }
      },
      "Checkpoint::Checkpoint with an exception in flight");
}

// Checkpoint bytes of a runtime holding only `names`, as freshly constructed monitors.
size_t SnapshotBytesOfFreshMonitors(const std::vector<std::string>& names) {
  pcr::Runtime rt;
  std::vector<std::unique_ptr<pcr::MonitorLock>> locks;
  for (const std::string& name : names) {
    locks.push_back(std::make_unique<pcr::MonitorLock>(rt.scheduler(), name));
  }
  return pcr::Checkpoint(rt.scheduler(), rt.tracer(), nullptr).bytes();
}

// Unregistering costs O(1) in any order: the registry's last entry moves into the vacated slot.
// A Checkpoint must still save and restore exactly the live objects. The unregistration half
// runs in every build, so under ASan a write through a destroyed object's slot is reported; the
// snapshot half needs Checkpoint::Supported().
TEST(CheckpointRegistryTest, UnregisteringInAnyOrderKeepsExactlyTheLiveObjects) {
  constexpr int kLocks = 48;
  constexpr int kDestroyed = 36;  // the first kDestroyed of each order; the rest stay alive
  std::vector<int> creation;
  for (int i = 0; i < kLocks; ++i) {
    creation.push_back(i);
  }
  std::vector<int> reverse(creation.rbegin(), creation.rend());
  std::vector<int> interleaved;  // alternately from either end: 0, 47, 1, 46, ...
  for (int i = 0; i < kLocks / 2; ++i) {
    interleaved.push_back(i);
    interleaved.push_back(kLocks - 1 - i);
  }
  std::vector<int> strided;  // every third, then the rest: 0, 3, 6, ..., 1, 4, ...
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = phase; i < kLocks; i += 3) {
      strided.push_back(i);
    }
  }
  const std::vector<std::pair<std::string, std::vector<int>>> orders = {
      {"creation", creation}, {"reverse", reverse}, {"interleaved", interleaved},
      {"strided", strided}};
  for (const auto& [label, order] : orders) {
    SCOPED_TRACE(label);
    pcr::Runtime rt;
    std::vector<std::unique_ptr<pcr::MonitorLock>> locks;
    for (int i = 0; i < kLocks; ++i) {
      locks.push_back(std::make_unique<pcr::MonitorLock>(rt.scheduler(), 'm' + std::to_string(i)));
    }
    for (int k = 0; k < kDestroyed; ++k) {
      locks[static_cast<size_t>(order[static_cast<size_t>(k)])].reset();
    }
    std::vector<std::string> live_names;
    for (const auto& lock : locks) {
      if (lock != nullptr) {
        live_names.push_back(lock->name());
      }
    }
    ASSERT_EQ(live_names.size(), static_cast<size_t>(kLocks - kDestroyed));
    if (pcr::Checkpoint::Supported()) {
      pcr::Checkpoint ckpt(rt.scheduler(), rt.tracer(), nullptr);
      EXPECT_EQ(ckpt.bytes(), SnapshotBytesOfFreshMonitors(live_names))
          << "the snapshot must hold exactly the live monitors";
      for (const auto& lock : locks) {
        if (lock != nullptr) {
          lock->Poison();
        }
      }
      ckpt.Restore();
      for (const auto& lock : locks) {
        if (lock != nullptr) {
          EXPECT_FALSE(lock->poisoned()) << lock->name() << " was not restored";
        }
      }
    }
    for (size_t k = kDestroyed; k < order.size(); ++k) {
      locks[static_cast<size_t>(order[k])].reset();
    }
    if (pcr::Checkpoint::Supported()) {
      EXPECT_EQ(pcr::Checkpoint(rt.scheduler(), rt.tracer(), nullptr).bytes(),
                SnapshotBytesOfFreshMonitors({}))
          << "no monitor is left registered";
    }
  }
}

TEST(CheckpointEquivalenceTest, WorkerCountInvariantWithCheckpointingOn) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  ExploreResult one = ExploreScenario(*scenario, /*checkpoint=*/true, 1);
  ExploreResult four = ExploreScenario(*scenario, /*checkpoint=*/true, 4);
  ASSERT_FALSE(one.failures.empty()) << "scenario should find its injected bug";
  ExpectSameResult(one, four);
}

TEST(CheckpointEquivalenceTest, FailuresFromCheckpointedRunsReplay) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  ExploreOptions options = scenario->options;
  options.checkpoint = true;
  Explorer explorer(options);
  ExploreResult result = explorer.Explore(scenario->body);
  ASSERT_FALSE(result.failures.empty());
  // Repros are recorded decision streams; they replay from zero regardless of how the
  // recording run was executed.
  explore::ScheduleOutcome again = explorer.Replay(result.failures.front().repro,
                                                   scenario->body);
  EXPECT_TRUE(again.failed);
  EXPECT_EQ(again.trace_hash, result.failures.front().trace_hash);
}

TEST(CheckpointProfileTest, CountersReportCheckpointWork) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  ExploreResult with = ExploreScenario(*scenario, /*checkpoint=*/true);
  ExploreResult without = ExploreScenario(*scenario, /*checkpoint=*/false);
  if (pcr::Checkpoint::Supported()) {
    EXPECT_GT(with.profile.checkpoint_saves, 0);
    EXPECT_GT(with.profile.checkpoint_resumes, 0);
    EXPECT_GT(with.profile.checkpoint_bytes, 0);
  } else {
    EXPECT_EQ(with.profile.checkpoint_saves, 0);
  }
  // From-zero replay never snapshots anything, but prunes the same schedules.
  EXPECT_EQ(without.profile.checkpoint_saves, 0);
  EXPECT_EQ(without.profile.checkpoint_resumes, 0);
  EXPECT_EQ(without.profile.checkpoint_bytes, 0);
  EXPECT_EQ(with.profile.pruned_schedules, without.profile.pruned_schedules);
}

// The substrate counters count host work. A checkpointed Explore call runs each segment once,
// so it counts each once; from zero, every schedule counts its whole run. Each pool worker
// counts into its own arena and Explore sums them, so switches and acquires are the same at
// any worker count. The stack pool's hits depend on which worker ran what, so they are pinned
// at one worker only. Where checkpointing is unsupported, the checkpointed call runs from zero.
TEST(CheckpointProfileTest, SubstrateCountersArePinned) {
  struct Counts {
    int64_t switches;
    int64_t acquires;
    int64_t pool_hits;
  };
  struct Pinned {
    const char* scenario;
    Counts from_zero;
    Counts checkpointed;
  };
  const Pinned all[] = {
      {"buggy_monitor", {29992, 1734, 1731}, {6718, 135, 132}},
      {"good_monitor", {34588, 1920, 1917}, {7128, 99, 96}},
  };
  for (const Pinned& pinned : all) {
    const explore::BugScenario* scenario = explore::FindScenario(pinned.scenario);
    ASSERT_NE(scenario, nullptr) << pinned.scenario;
    for (bool checkpoint : {false, true}) {
      for (int workers : {1, 4}) {
        SCOPED_TRACE(std::string(pinned.scenario) +
                     (checkpoint ? " checkpointed" : " from zero") + " at workers " +
                     std::to_string(workers));
        const ExploreResult result = ExploreScenario(*scenario, checkpoint, workers, 2000);
        const Counts& want = checkpoint && pcr::Checkpoint::Supported() ? pinned.checkpointed
                                                                        : pinned.from_zero;
        EXPECT_EQ(result.profile.fiber_switches, want.switches);
        EXPECT_EQ(result.profile.stack_acquires, want.acquires);
        if (workers == 1) {
          EXPECT_EQ(result.profile.stack_pool_hits, want.pool_hits);
        }
      }
    }
  }
}

// Every pcr::HostCounts field, named, in declaration order. The size check fails the build when
// a field is added without being listed here.
std::vector<std::pair<const char*, int64_t>> HostCountFields(const pcr::HostCounts& c) {
  static_assert(sizeof(pcr::HostCounts) == 13 * sizeof(int64_t), "list every HostCounts field");
  return {{"dispatches", c.dispatches},
          {"idle_parks", c.idle_parks},
          {"preempts", c.preempts},
          {"forced_preempts", c.forced_preempts},
          {"ticks", c.ticks},
          {"timer_fires", c.timer_fires},
          {"fiber_switches", c.fiber_switches},
          {"stack_acquires", c.stack_acquires},
          {"stack_pool_hits", c.stack_pool_hits},
          {"faults_injected", c.faults_injected},
          {"fork_failures", c.fork_failures},
          {"monitors_poisoned", c.monitors_poisoned},
          {"monitor_contentions", c.monitor_contentions}};
}

// Forces one preemption, at the first point it is asked about; keeps FIFO tie-breaks.
struct PreemptOnce : pcr::SchedulePerturber {
  bool fired = false;
  bool ForcePreempt(pcr::PreemptPoint, pcr::ThreadId) override {
    return !std::exchange(fired, true);
  }
  size_t PickNext(const pcr::ThreadId*, size_t) override { return 0; }
};

// Fails the first FORK it is asked about.
struct FailOneFork : pcr::FaultInjector {
  bool fired = false;
  uint64_t OnFaultPoint(pcr::FaultSite site) override {
    return site == pcr::FaultSite::kFork && !std::exchange(fired, true) ? 1 : 0;
  }
};

// A restore does not undo host work: every host count the run moves after a snapshot stays
// where the run left it when the snapshot is restored.
TEST(CheckpointRestoreTest, SubstrateCountersDoNotRewind) {
  if (!pcr::Checkpoint::Supported()) {
    GTEST_SKIP() << "checkpointing is unsupported in this build";
  }
  pcr::Runtime rt;
  pcr::Scheduler& scheduler = rt.scheduler();
  pcr::MonitorLock mu(scheduler, "mu");
  pcr::MonitorLock abandoned(scheduler, "abandoned");
  rt.ForkDetached([] { pcr::thisthread::Compute(10); });  // parks its stack in the pool
  rt.RunUntilQuiescent(pcr::kUsecPerSec);
  pcr::Checkpoint ckpt(scheduler, rt.tracer(), nullptr);
  const auto at_snapshot = HostCountFields(scheduler.host_counts());

  // One forced preemption at the first monitor entry, and one failed FORK.
  PreemptOnce perturber;
  FailOneFork injector;
  scheduler.set_perturber(&perturber);
  scheduler.set_fault_injector(&injector);
  ASSERT_FALSE(scheduler.TryFork([] {}, {.on_failure = pcr::ForkOnFailure::kReturnError}).ok());
  // Holding mu across a sleep: the second entrant contends, and the sleep's timer fires at a
  // tick.
  rt.ForkDetached([&] {
    pcr::MonitorGuard g(mu);
    pcr::thisthread::Sleep(60 * pcr::kUsecPerMsec);
  }, {.priority = 3});
  rt.ForkDetached([&] { pcr::MonitorGuard g(mu); }, {.priority = 3});
  // A low-priority thread forks a high-priority one, which preempts it.
  rt.ForkDetached([&rt] {
    rt.ForkDetached([] {}, {.priority = 5});
    pcr::thisthread::Compute(10);
  }, {.priority = 2});
  // Dies holding a monitor, which poisons it.
  rt.ForkDetached([&] {
    abandoned.Enter();
    throw std::runtime_error("dies holding a monitor");
  });
  rt.RunUntilQuiescent(pcr::kUsecPerSec);
  scheduler.set_perturber(nullptr);
  scheduler.set_fault_injector(nullptr);
  const auto before_restore = HostCountFields(scheduler.host_counts());
  for (size_t i = 0; i < before_restore.size(); ++i) {
    EXPECT_GT(before_restore[i].second, at_snapshot[i].second) << before_restore[i].first;
  }

  ckpt.Restore();
  EXPECT_EQ(HostCountFields(scheduler.host_counts()), before_restore);
}

}  // namespace
