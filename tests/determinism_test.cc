// Determinism regression: every example workload, run twice under the same Config seed,
// must produce byte-identical trace event streams. This is the property the whole exploration
// harness rests on — if the runtime itself were nondeterministic, repro strings would be
// meaningless.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "examples/example_scenarios.h"
#include "src/explore/hash.h"
#include "src/fault/fault.h"
#include "src/pcr/runtime.h"
#include "src/trace/tracer.h"

namespace examples {

// gtest prints a parameter it cannot format as raw bytes, and ctest names embed that text.
// ExampleScenario's bytes are pointers that move with ASLR, so print the scenario name instead.
void PrintTo(const ExampleScenario& scenario, std::ostream* os) { *os << scenario.name; }

}  // namespace examples

namespace {

struct CapturedRun {
  std::vector<trace::Event> events;
  uint64_t hash = 0;
};

CapturedRun RunOnce(const examples::ExampleScenario& scenario, uint64_t seed) {
  pcr::Config config;
  config.seed = seed;
  pcr::Runtime rt(config);
  scenario.body(rt, /*verbose=*/false);
  return CapturedRun{rt.tracer().CopyEvents(), explore::TraceHash(rt.tracer())};
}

void ExpectIdentical(const CapturedRun& a, const CapturedRun& b, const char* name) {
  EXPECT_EQ(a.hash, b.hash) << name;
  ASSERT_EQ(a.events.size(), b.events.size()) << name;
  for (size_t i = 0; i < a.events.size(); ++i) {
    const trace::Event& x = a.events[i];
    const trace::Event& y = b.events[i];
    bool same = x.time_us == y.time_us && x.type == y.type && x.thread == y.thread &&
                x.object == y.object && x.arg == y.arg && x.priority == y.priority &&
                x.processor == y.processor;
    ASSERT_TRUE(same) << name << ": first divergence at event " << i;
  }
}

class DeterminismTest : public ::testing::TestWithParam<examples::ExampleScenario> {};

TEST_P(DeterminismTest, SameSeedSameTraceTwice) {
  const examples::ExampleScenario& scenario = GetParam();
  for (uint64_t seed : {1u, 7u}) {
    CapturedRun first = RunOnce(scenario, seed);
    CapturedRun second = RunOnce(scenario, seed);
    ASSERT_FALSE(first.events.empty()) << scenario.name;
    ExpectIdentical(first, second, scenario.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Examples, DeterminismTest,
    ::testing::ValuesIn(std::begin(examples::kExampleScenarios),
                        std::end(examples::kExampleScenarios)),
    [](const ::testing::TestParamInfo<examples::ExampleScenario>& info) {
      return std::string(info.param.name);
    });

// A seeded fault plan is part of the deterministic input: the same plan over the same workload
// must fire the same faults and yield byte-identical traces.
TEST(FaultDeterminismTest, SeededFaultPlanGivesIdenticalTraces) {
  fault::Plan plan;
  plan.seed = 11;
  plan.rate = 0.02;
  plan.site_mask = fault::SiteBit(fault::FaultSite::kNotifyLost) |
                   fault::SiteBit(fault::FaultSite::kTimerSkew);

  auto run_once = [&plan](const examples::ExampleScenario& scenario) {
    fault::Injector injector(plan);
    pcr::Config config;
    config.seed = 3;
    pcr::Runtime rt(config);
    rt.scheduler().set_fault_injector(&injector);
    scenario.body(rt, /*verbose=*/false);
    CapturedRun run{rt.tracer().CopyEvents(), explore::TraceHash(rt.tracer())};
    EXPECT_EQ(injector.plan(), plan) << "the plan itself must not mutate across a run";
    return run;
  };

  const examples::ExampleScenario& scenario = examples::kExampleScenarios[0];
  CapturedRun first = run_once(scenario);
  CapturedRun second = run_once(scenario);
  ASSERT_FALSE(first.events.empty());
  ExpectIdentical(first, second, "fault-plan determinism");
}

}  // namespace
