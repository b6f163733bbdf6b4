// Tests for the schedule-exploration harness (src/explore/): the explorer finds the injected
// bugs in the canned scenarios within a bounded budget, repro strings replay to identical
// traces, the merge of pruned cells reports what full copies did, and the repro codec
// round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "examples/example_scenarios.h"
#include "src/explore/detector.h"
#include "src/explore/explorer.h"
#include "src/explore/perturbers.h"
#include "src/explore/repro.h"
#include "src/explore/scenarios.h"
#include "src/fault/fault.h"
#include "src/pcr/runtime.h"

namespace {

const explore::BugScenario& Scenario(const std::string& name) {
  const explore::BugScenario* s = explore::FindScenario(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

bool HasFindingKind(const std::vector<explore::Finding>& findings, explore::FindingKind kind) {
  for (const explore::Finding& f : findings) {
    if (f.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(ExploreTest, FindsIfWaitBugWithinBudget) {
  const explore::BugScenario& scenario = Scenario("buggy_monitor");
  explore::ExploreOptions options = scenario.options;
  options.budget = 200;
  explore::Explorer explorer(options);
  explore::ExploreResult result = explorer.Explore(scenario.body);

  EXPECT_FALSE(result.baseline.failed)
      << "the unperturbed schedule should pass; the bug needs an adverse interleaving";
  ASSERT_FALSE(result.failures.empty()) << "budget of 200 schedules should expose the IF-WAIT bug";
  EXPECT_NE(result.failures[0].failures[0].find("zero tokens"), std::string::npos);
}

TEST(ExploreTest, ReplayReproducesIdenticalTraceHashTwice) {
  const explore::BugScenario& scenario = Scenario("buggy_monitor");
  explore::Explorer explorer(scenario.options);
  explore::ExploreResult result = explorer.Explore(scenario.body);
  ASSERT_FALSE(result.failures.empty());

  const explore::ScheduleOutcome& failure = result.failures[0];
  explore::ScheduleOutcome first = explorer.Replay(failure.repro, scenario.body);
  explore::ScheduleOutcome second = explorer.Replay(failure.repro, scenario.body);

  EXPECT_TRUE(first.failed);
  EXPECT_TRUE(second.failed);
  EXPECT_EQ(first.trace_hash, failure.trace_hash);
  EXPECT_EQ(second.trace_hash, failure.trace_hash);
  EXPECT_EQ(first.failures, second.failures);
}

TEST(ExploreTest, WhileLoopVariantSurvivesTheSameSchedules) {
  const explore::BugScenario& scenario = Scenario("good_monitor");
  explore::Explorer explorer(scenario.options);
  explore::ExploreResult result = explorer.Explore(scenario.body);
  EXPECT_TRUE(result.failures.empty())
      << "WHILE-guarded WAIT must survive every explored schedule; got: "
      << result.failures[0].failures[0];
  EXPECT_GT(result.distinct_schedules, 1) << "perturbation should produce distinct schedules";
}

TEST(ExploreTest, DetectsMissingNotifyMaskedByTimeout) {
  const explore::BugScenario& scenario = Scenario("missing_notify");
  explore::Explorer explorer(scenario.options);
  explore::ExploreResult result = explorer.Explore(scenario.body);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_TRUE(
      HasFindingKind(result.failures[0].findings, explore::FindingKind::kTimeoutDrivenCv));
  // The workload still makes progress — the bug is masked, which is the point.
  EXPECT_TRUE(result.baseline.failures.empty() || result.baseline.findings.size() > 0);
}

TEST(ExploreTest, DetectsUnprotectedWeakMemoryAccess) {
  const explore::BugScenario& scenario = Scenario("weakmem_race");
  explore::Explorer explorer(scenario.options);
  explore::ExploreResult result = explorer.Explore(scenario.body);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_TRUE(HasFindingKind(result.failures[0].findings,
                             explore::FindingKind::kUnprotectedSharedAccess));
}

TEST(ExploreTest, MinimizedReproStillFailsAndIsShort) {
  const explore::BugScenario& scenario = Scenario("buggy_monitor");
  explore::Explorer explorer(scenario.options);
  explore::ExploreResult result = explorer.Explore(scenario.body);
  ASSERT_FALSE(result.failures.empty());

  explore::Repro repro;
  ASSERT_TRUE(explore::Repro::Decode(result.failures[0].repro, &repro));
  EXPECT_EQ(repro.scenario, "buggy_monitor");
  // Minimization truncated the stream to the failing prefix; the bug in this scenario needs
  // only a handful of perturbations, so the repro should be far below the budgeted run length.
  EXPECT_LT(repro.decisions.size(), 256u);
  explore::ScheduleOutcome replay = explorer.Replay(result.failures[0].repro, scenario.body);
  EXPECT_TRUE(replay.failed);
}

// Fails before the first segment boundary: the body makes no scheduling decision, so every
// group's run ends before depths[0] and its one execution stands in for all of the group's
// cells. The swept runtime seed picks the failure and the trace.
void FailsBeforeTheFirstBoundary(pcr::Runtime& rt, explore::TestContext& ctx) {
  const uint64_t draw = rt.scheduler().RandomU64();
  rt.ForkDetached([draw] {
    pcr::thisthread::Compute(static_cast<pcr::Usec>(1 + draw % 5) * pcr::kUsecPerMsec);
  });
  rt.RunUntilQuiescent(pcr::kUsecPerSec);
  ctx.Check(draw % 4 == 0, "bucket " + std::to_string(draw % 4));
}

// The merge reads only the trace hash of a cell that another cell stood in for. The pinned
// values are what it reports when every such cell holds a full copy of its source's outcome:
// the failures, their order and cut-off, and the schedule counts must be the same.
TEST(ExploreMergeTest, CollapsedGroupsMergeAsWithFullCopies) {
  struct Expected {
    int schedule_index;
    std::string failure;
    std::string repro;
  };
  const std::vector<Expected> all = {
      {1, "bucket 2", "pcr1:collapse:2469588189546311529:"},
      {5, "bucket 1", "pcr1:collapse:6472927700900931385:"},
      {29, "bucket 3", "pcr1:collapse:6836463893453737491:"},
  };
  for (bool checkpoint : {true, false}) {
    for (size_t max_failures : {size_t{8}, size_t{2}}) {
      SCOPED_TRACE("checkpoint " + std::to_string(checkpoint) + ", max_failures " +
                   std::to_string(max_failures));
      explore::ExploreOptions options;
      options.scenario_name = "collapse";
      options.budget = 100;  // 25 groups of 4 cells after the baseline
      options.workers = 1;
      options.minimize = false;
      options.checkpoint = checkpoint;
      options.max_failures = max_failures;
      explore::ExploreResult result =
          explore::Explorer(options).Explore(FailsBeforeTheFirstBoundary);
      EXPECT_FALSE(result.baseline.failed);
      EXPECT_EQ(result.baseline.repro, "pcr1:collapse:1:");
      EXPECT_EQ(result.profile.pruned_schedules, 74);
      // With two failures allowed the merge stops at schedule 5, group 1's first cell.
      EXPECT_EQ(result.schedules_run, max_failures == 2 ? 6 : 100);
      EXPECT_EQ(result.distinct_schedules, max_failures == 2 ? 3 : 26);
      ASSERT_EQ(result.failures.size(), std::min(max_failures, all.size()));
      for (size_t i = 0; i < result.failures.size(); ++i) {
        EXPECT_EQ(result.failures[i].schedule_index, all[i].schedule_index) << i;
        EXPECT_EQ(result.failures[i].failures, std::vector<std::string>{all[i].failure}) << i;
        EXPECT_EQ(result.failures[i].repro, all[i].repro) << i;
      }
    }
  }
}

TEST(ReproTest, RoundTripsRunLengthEncodedStreams) {
  std::vector<explore::Decision> decisions;
  for (int i = 0; i < 42; ++i) {
    decisions.push_back(0);
  }
  decisions.push_back(1);
  decisions.push_back(0);
  for (int i = 0; i < 7; ++i) {
    decisions.push_back(3);
  }
  std::string repro = explore::Repro{"buggy_monitor", 7, decisions, {}}.Encode();

  explore::Repro decoded;
  ASSERT_TRUE(explore::Repro::Decode(repro, &decoded));
  EXPECT_EQ(decoded.scenario, "buggy_monitor");
  EXPECT_EQ(decoded.runtime_seed, 7u);
  EXPECT_EQ(decoded.decisions, decisions);
}

TEST(ReproTest, RejectsMalformedStrings) {
  explore::Repro decoded;
  for (const char* bad : {"", "pcr2:x:1:", "pcr1:x:notanumber:", "pcr1:x:1:0r5", "pcr1:x:1:zz",
                          "pcr1:missing-fields", "pcr1:x:1:01:garbage", "pcr1:x:1:01:f1,bogus"}) {
    EXPECT_FALSE(explore::Repro::Decode(bad, &decoded)) << bad;
  }
}

// A rejected string, whichever field fails, leaves the output as it was.
TEST(ReproTest, FailedDecodeLeavesTheOutputUntouched) {
  const explore::Repro before{"kept", 9, {1, 0, 2}, fault::Plan::Decode("f1,notify-lost@2")};
  for (const char* bad : {"pcr1:x:1:0r5", "pcr1:x:1:01:garbage", "pcr1:x:1:01:f1,bogus"}) {
    explore::Repro out = before;
    EXPECT_FALSE(explore::Repro::Decode(bad, &out)) << bad;
    EXPECT_EQ(out, before) << bad;
  }
}

// A disabled plan is "no faults" whatever its other fields hold: no fifth field.
TEST(ReproTest, DisabledPlanWritesNoFifthField) {
  explore::Repro repro{"scn", 3, {0, 1}, {}};
  repro.fault_plan.seed = 5;       // no rate, no script
  repro.fault_plan.rate = 0.5;     // a rate over no site is disabled too
  ASSERT_FALSE(repro.fault_plan.enabled());
  EXPECT_EQ(repro.Encode(), "pcr1:scn:3:01");
  repro.fault_plan.site_mask = fault::SiteBit(fault::FaultSite::kNotifyLost);
  ASSERT_TRUE(repro.fault_plan.enabled());
  EXPECT_EQ(repro.Encode(), "pcr1:scn:3:01:f1,seed=5,rate=0.5,sites=notify-lost");
}

TEST(ScenarioRegistryTest, ExampleWorkloadsRegisterOnceAndReplayDeterministically) {
  int added = examples::RegisterExampleExploreScenarios();
  EXPECT_GT(added, 0);
  EXPECT_EQ(examples::RegisterExampleExploreScenarios(), 0) << "registration must be idempotent";

  const explore::BugScenario* s = explore::FindScenario("example_quickstart");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->options.scenario_name, "example_quickstart");
  EXPECT_FALSE(s->expect_bug);

  explore::Explorer explorer(s->options);
  std::string repro = explore::Repro{s->name, s->options.base_config.seed, {}, {}}.Encode();
  explore::ScheduleOutcome first = explorer.Replay(repro, s->body);
  explore::ScheduleOutcome second = explorer.Replay(repro, s->body);
  EXPECT_FALSE(first.failed);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
}

TEST(PerturberTest, ReplayerEchoesRecordedDecisions) {
  explore::PerturbPolicy policy;
  policy.seed = 99;
  policy.preempt_probability = 0.5;
  policy.shuffle_probability = 0.5;
  explore::RecordingPerturber recorder(policy);

  pcr::ThreadId candidates[4] = {10, 11, 12, 13};
  std::vector<explore::Decision> expected;
  for (int i = 0; i < 64; ++i) {
    bool fired = recorder.ForcePreempt(pcr::PreemptPoint::kMonitorEnter, 10);
    expected.push_back(fired ? 1 : 0);
    size_t pick = recorder.PickNext(candidates, 4);
    EXPECT_LT(pick, 4u);
    expected.push_back(static_cast<explore::Decision>(pick));
  }
  EXPECT_EQ(recorder.decisions(), expected);

  explore::ReplayPerturber replayer(recorder.decisions());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(replayer.ForcePreempt(pcr::PreemptPoint::kMonitorEnter, 10),
              expected[2 * i] != 0);
    EXPECT_EQ(replayer.PickNext(candidates, 4), expected[2 * i + 1]);
  }
  // Past the recorded stream: defaults.
  EXPECT_FALSE(replayer.ForcePreempt(pcr::PreemptPoint::kNotify, 10));
  EXPECT_EQ(replayer.PickNext(candidates, 4), 0u);
}

}  // namespace
