// Integration tests for the Cedar/GVX worlds and the scenario runner: the structural claims of
// Section 3 as assertions.

#include <gtest/gtest.h>

#include "src/pcr/runtime.h"
#include "src/world/cedar_world.h"
#include "src/world/events.h"
#include "src/world/gvx_world.h"
#include "src/world/library.h"
#include "src/analysis/profile.h"
#include "src/trace/validate.h"
#include "src/world/scenarios.h"
#include "src/world/xserver.h"

namespace world {
namespace {

using pcr::kUsecPerMsec;
using pcr::kUsecPerSec;

ScenarioOptions QuickOptions() {
  ScenarioOptions options;
  options.duration = 8 * kUsecPerSec;
  options.warmup = kUsecPerSec;
  return options;
}

TEST(ModuleLibraryTest, DistinctMonitorsPerKey) {
  pcr::Runtime rt;
  ModuleLibrary library(rt, "lib", 16);
  rt.ForkDetached([&] {
    library.CallRange(0, 40, 10);  // wraps around the 16-module pool
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(library.calls(), 40);
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.distinct_mls, 16);
}

TEST(XServerModelTest, MergeKeepsLatestPerRegion) {
  std::vector<PaintRequest> batch = {
      {100, 1, 7}, {110, 1, 8}, {120, 1, 7}, {130, 2, 7},
  };
  XServerModel::MergeOverlapping(batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].window, 1);
  EXPECT_EQ(batch[0].region, 7);
  EXPECT_EQ(batch[0].created_at, 100);  // latency measured from the first damage
  EXPECT_EQ(batch[1].region, 8);
  EXPECT_EQ(batch[2].window, 2);
}

TEST(XServerModelTest, ChargesSenderAndTracksLatency) {
  pcr::Runtime rt;
  XServerModel server(rt, {1000, 100});
  rt.ForkDetached([&] {
    pcr::thisthread::Compute(5 * kUsecPerMsec);
    server.Send({PaintRequest{0, 0, 0}, PaintRequest{0, 0, 1}});
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(server.flushes(), 1);
  EXPECT_EQ(server.requests_received(), 2);
  EXPECT_EQ(server.server_work(), 1000 + 2 * 100);
  EXPECT_GE(server.max_echo_latency(), 5 * kUsecPerMsec);
}

TEST(InputDeviceTest, ScriptsApproximateRate) {
  pcr::Runtime rt;
  pcr::InterruptSource source(rt.scheduler(), "dev");
  InputDevice device(rt, source);
  device.ScriptUniform(0, 10 * kUsecPerSec, 5.0, InputKind::kKey);
  // ~50 events; jitter may push a few outside the window.
  EXPECT_GE(device.scripted(), 40);
  EXPECT_LE(device.scripted(), 55);
}

TEST(CedarWorldTest, IdleHasPaperScaleEternalPopulation) {
  pcr::Runtime rt;
  CedarWorld world(rt);
  rt.RunFor(5 * kUsecPerSec);
  // "an idle Cedar system has about 35 eternal threads running in it" (Section 3).
  EXPECT_GE(world.eternal_thread_count(), 30);
  EXPECT_LE(world.eternal_thread_count(), 40);
  trace::GenealogySummary g = trace::AnalyzeGenealogy(rt.tracer());
  EXPECT_GE(g.eternal, 30);
}

TEST(CedarWorldTest, IdleForksTrickleInTwoGenerations) {
  pcr::Runtime rt;
  CedarWorld world(rt);
  rt.RunFor(20 * kUsecPerSec);
  trace::GenealogySummary g = trace::AnalyzeGenealogy(rt.tracer());
  EXPECT_GE(g.transients, 10);  // ~1/sec
  EXPECT_LE(g.transients, 30);
  EXPECT_EQ(g.max_transient_generation, 2);  // child forks grandchild, never deeper
}

TEST(CedarWorldTest, EveryKeystrokeForksExactlyOneEchoWorker) {
  pcr::Runtime rt;
  CedarWorld world(rt);
  // Use details that trigger neither application commands (detail%50==17) nor buttons.
  for (int i = 0; i < 10; ++i) {
    world.keyboard().source().PostAt((200 + i * 230) * kUsecPerMsec,
                                     EncodeInput(InputKind::kKey, static_cast<uint32_t>(i)));
  }
  rt.RunFor(4 * kUsecPerSec);
  EXPECT_EQ(world.keystrokes_handled(), 10);
  // Echoes made it to the X server.
  EXPECT_GT(world.xserver().requests_received(), 0);
}

TEST(CedarWorldTest, MouseMovesForkNothing) {
  pcr::Runtime rt;
  CedarWorld baseline(rt);
  rt.RunFor(5 * kUsecPerSec);
  trace::GenealogySummary before = trace::AnalyzeGenealogy(rt.tracer());

  pcr::Runtime rt2;
  CedarWorld world(rt2);
  world.mouse().ScriptUniform(0, 5 * kUsecPerSec, 20.0, InputKind::kMouseMove);
  rt2.RunFor(5 * kUsecPerSec);
  trace::GenealogySummary after = trace::AnalyzeGenealogy(rt2.tracer());
  // "simply moving the mouse around causes no threads to be forked" — same transient count as
  // the idle baseline (the idle trickle continues either way).
  EXPECT_NEAR(static_cast<double>(after.transients), static_cast<double>(before.transients), 3);
}

TEST(CedarWorldTest, ComputeWorkloadsSuppressIdleForking) {
  ScenarioOptions options = QuickOptions();
  ScenarioResult idle = RunScenario(Scenario::kCedarIdle, options);
  ScenarioResult compile = RunScenario(Scenario::kCedarCompile, options);
  // "the two compute-intensive applications we examined caused thread-forking activity to
  // decrease by more than a factor of 3" (Section 3).
  EXPECT_LT(compile.summary.forks_per_sec * 2, idle.summary.forks_per_sec * 3);
  EXPECT_LT(compile.summary.forks_per_sec, idle.summary.forks_per_sec);
}

TEST(CedarWorldTest, CompileTouchesFarMoreDistinctMonitors) {
  ScenarioOptions options;
  options.duration = 30 * kUsecPerSec;
  options.warmup = 2 * kUsecPerSec;
  ScenarioResult compile = RunScenario(Scenario::kCedarCompile, options);
  ScenarioResult idle = RunScenario(Scenario::kCedarIdle, options);
  EXPECT_GT(compile.summary.distinct_mls, 2 * idle.summary.distinct_mls);
  EXPECT_GT(compile.summary.distinct_mls, 1500);  // paper: 2900
}

TEST(GvxWorldTest, NeverForksUnderAnyInput) {
  pcr::Runtime rt;
  GvxWorld world(rt);
  world.keyboard().ScriptUniform(0, 5 * kUsecPerSec, 5.0, InputKind::kKey);
  world.mouse().ScriptUniform(0, 5 * kUsecPerSec, 10.0, InputKind::kMouseMove);
  world.mouse().ScriptUniform(0, 5 * kUsecPerSec, 1.0, InputKind::kMouseClick);
  const int forks_before = rt.scheduler().thread_count();
  rt.RunFor(6 * kUsecPerSec);
  // "no additional threads are forked for any user interface activity" (Section 3).
  EXPECT_EQ(rt.scheduler().thread_count(), forks_before);
  EXPECT_GT(world.keystrokes_handled(), 0);
}

TEST(GvxWorldTest, HasTwentyTwoEternalThreadsAndFewCvs) {
  ScenarioResult r = RunScenario(Scenario::kGvxKeyboard, QuickOptions());
  EXPECT_EQ(r.eternal_threads, 22);
  // Table 3: GVX waits on only 5-7 distinct condition variables.
  EXPECT_GE(r.summary.distinct_cvs, 3);
  EXPECT_LE(r.summary.distinct_cvs, 7);
}

TEST(GvxWorldTest, ScrollContentionExceedsCedarContention) {
  ScenarioOptions options = QuickOptions();
  ScenarioResult gvx = RunScenario(Scenario::kGvxScroll, options);
  ScenarioResult cedar = RunScenario(Scenario::kCedarScroll, options);
  // "contention for monitor locks was sometimes significantly higher in GVX than in Cedar"
  // (Section 3).
  EXPECT_GT(gvx.summary.contention_fraction, cedar.summary.contention_fraction);
  EXPECT_GT(gvx.summary.contention_fraction, 0.0005);  // paper: 0.4% when scrolling
  EXPECT_LT(gvx.summary.contention_fraction, 0.02);
}

TEST(ScenarioTest, CedarSwitchesDwarfGvxSwitches) {
  ScenarioOptions options = QuickOptions();
  ScenarioResult cedar = RunScenario(Scenario::kCedarKeyboard, options);
  ScenarioResult gvx = RunScenario(Scenario::kGvxKeyboard, options);
  EXPECT_GT(cedar.summary.switches_per_sec, 2 * gvx.summary.switches_per_sec);
  EXPECT_GT(cedar.summary.ml_enters_per_sec, gvx.summary.ml_enters_per_sec);
}

TEST(ScenarioTest, KeyboardIsTheCedarSwitchRatePeak) {
  ScenarioOptions options = QuickOptions();
  double keyboard = RunScenario(Scenario::kCedarKeyboard, options).summary.switches_per_sec;
  double idle = RunScenario(Scenario::kCedarIdle, options).summary.switches_per_sec;
  double compile = RunScenario(Scenario::kCedarCompile, options).summary.switches_per_sec;
  EXPECT_GT(keyboard, idle);
  EXPECT_GT(keyboard, compile);
}

TEST(ScenarioTest, MostWaitsTimeOut) {
  // "with 50% to 80% of these waits timing out rather than receiving a wakeup notification"
  // (Section 3) — and nearly all of them when idle.
  ScenarioOptions options = QuickOptions();
  EXPECT_GT(RunScenario(Scenario::kCedarIdle, options).summary.timeout_fraction, 0.8);
  double keyboard = RunScenario(Scenario::kCedarKeyboard, options).summary.timeout_fraction;
  EXPECT_GT(keyboard, 0.3);
  EXPECT_LT(keyboard, 0.9);  // input notifications cut the timeout share
}

TEST(ScenarioTest, ExecutionIntervalsAreBimodal) {
  ScenarioOptions options = QuickOptions();
  ScenarioResult keyboard = RunScenario(Scenario::kCedarKeyboard, options);
  // Most intervals are short (paper: ~75% under 5 ms)...
  EXPECT_GT(keyboard.summary.FractionIntervalsUnder(5 * kUsecPerMsec), 0.5);
  // ...while compute-bound activity accumulates its execution time in quantum-length runs
  // (paper: 20-50% of execution time in 45-50 ms intervals).
  ScenarioResult compile = RunScenario(Scenario::kCedarCompile, options);
  EXPECT_GT(compile.summary.FractionTimeBetween(40 * kUsecPerMsec, 55 * kUsecPerMsec), 0.2);
  EXPECT_GT(compile.summary.FractionTimeBetween(40 * kUsecPerMsec, 55 * kUsecPerMsec),
            keyboard.summary.FractionTimeBetween(40 * kUsecPerMsec, 55 * kUsecPerMsec));
}

TEST(ScenarioTest, DeterministicForFixedSeed) {
  ScenarioOptions options = QuickOptions();
  ScenarioResult a = RunScenario(Scenario::kCedarKeyboard, options);
  ScenarioResult b = RunScenario(Scenario::kCedarKeyboard, options);
  EXPECT_EQ(a.summary.switches, b.summary.switches);
  EXPECT_EQ(a.summary.ml_enters, b.summary.ml_enters);
  EXPECT_EQ(a.summary.forks, b.summary.forks);
  EXPECT_EQ(a.summary.cv_waits, b.summary.cv_waits);
}

TEST(ScenarioTest, SeedChangesScheduleButNotStructure) {
  ScenarioOptions options = QuickOptions();
  ScenarioOptions other = options;
  other.seed = 77;
  ScenarioResult a = RunScenario(Scenario::kCedarKeyboard, options);
  ScenarioResult b = RunScenario(Scenario::kCedarKeyboard, other);
  EXPECT_NE(a.summary.switches, b.summary.switches);  // jittered input differs
  EXPECT_EQ(a.eternal_threads, b.eternal_threads);    // structure does not
  EXPECT_NEAR(a.summary.forks_per_sec, b.summary.forks_per_sec, 1.5);
}

TEST(ScenarioTest, MaxLiveThreadsStaysInPaperRange) {
  // "the maximum number of threads concurrently existing in the system never exceeded 41"
  // (Section 3).
  for (Scenario s : {Scenario::kCedarKeyboard, Scenario::kCedarFormat, Scenario::kCedarIdle}) {
    ScenarioResult r = RunScenario(s, QuickOptions());
    EXPECT_LE(r.summary.max_live_threads, 55) << r.name;
    EXPECT_GE(r.summary.max_live_threads, 30) << r.name;
  }
}

TEST(ScenarioTest, EverydayWorkEmploysFarMoreThreads) {
  // "users employ two to three times this many in everyday work" (Section 3): the mixed
  // scenario's concurrent-thread peak clearly exceeds any single benchmark's.
  ScenarioOptions options = QuickOptions();
  ScenarioResult everyday = RunScenario(Scenario::kCedarEveryday, options);
  ScenarioResult keyboard = RunScenario(Scenario::kCedarKeyboard, options);
  EXPECT_GT(everyday.summary.max_live_threads, keyboard.summary.max_live_threads);
  EXPECT_GE(everyday.summary.max_live_threads, 45);
  EXPECT_GT(everyday.summary.forks_per_sec, keyboard.summary.forks_per_sec);
}

TEST(ScenarioTest, EveryScenarioProducesAStructurallyValidTrace) {
  ScenarioOptions options;
  options.duration = 4 * kUsecPerSec;
  options.warmup = kUsecPerSec;
  for (Scenario scenario : AllScenarios()) {
    options.inspect = [&](pcr::Runtime& rt) {
      trace::ValidationResult validation = trace::ValidateTrace(rt.tracer());
      EXPECT_TRUE(validation.ok())
          << ScenarioName(scenario) << ":\n" << validation.ToString();
    };
    RunScenario(scenario, options);
  }
}

TEST(ScenarioTest, MonitorTrafficConcentratesInAFewThreads) {
  // "most of the monitor/condition variable traffic is observed in about 10 to 15 different
  // threads, with the worker thread of a benchmark activity dominating the numbers"
  // (Section 3).
  ScenarioOptions options = QuickOptions();
  options.inspect = [](pcr::Runtime& rt) {
    analysis::ProfileSummary profile = analysis::ProfileThreads(rt.tracer());
    EXPECT_LE(profile.ThreadsCarryingTraffic(0.8), 20);
    EXPECT_GE(profile.ThreadsCarryingTraffic(0.8), 5);
    // The imaging/worker thread dominates.
    EXPECT_GT(profile.DominantTrafficShare(), 0.3);
  };
  RunScenario(Scenario::kCedarKeyboard, options);
}

TEST(ScenarioTest, CensusTotalsAreStable) {
  ScenarioResult cedar = RunScenario(Scenario::kCedarIdle, QuickOptions());
  ScenarioResult gvx = RunScenario(Scenario::kGvxIdle, QuickOptions());
  EXPECT_GT(cedar.census.total(), 40);
  EXPECT_EQ(gvx.census.total(), 22);
  EXPECT_GT(cedar.census.count(trace::Paradigm::kDeferWork), 10);
  EXPECT_EQ(gvx.census.count(trace::Paradigm::kDeferWork), 0);
}

}  // namespace
}  // namespace world
