// Randomized stress: seeded random programs over the full primitive set, with invariants
// checked after every run. The generator only creates lock-ordered acquisitions (the deadlock
// avoiders' canonical-order discipline), so every run must terminate cleanly.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "src/pcr/condition.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/trace/stats.h"
#include "src/trace/validate.h"

namespace pcr {
namespace {

struct StressWorld {
  explicit StressWorld(Runtime& rt) {
    for (int i = 0; i < 6; ++i) {
      monitors.push_back(std::make_unique<MonitorLock>(rt.scheduler(), 'm' + std::to_string(i)));
      conditions.push_back(std::make_unique<Condition>(*monitors.back(),
                                                       'c' + std::to_string(i),
                                                       40 * kUsecPerMsec));
      counters.push_back(0);
    }
  }
  std::vector<std::unique_ptr<MonitorLock>> monitors;
  std::vector<std::unique_ptr<Condition>> conditions;
  std::vector<int> counters;
  int forks_left = 120;
};

// One random actor: a bounded sequence of random primitive operations.
void RandomActor(Runtime& rt, StressWorld& world, uint64_t seed, int depth) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> op_dist(0, 6);
  std::uniform_int_distribution<int> mon_dist(0, static_cast<int>(world.monitors.size()) - 1);
  std::uniform_int_distribution<Usec> cost_dist(10, 3000);
  for (int step = 0; step < 25; ++step) {
    switch (op_dist(rng)) {
      case 0:
        thisthread::Compute(cost_dist(rng));
        break;
      case 1:
        thisthread::Yield();
        break;
      case 2:
        thisthread::Sleep(cost_dist(rng) * 20);
        break;
      case 3: {  // lock a pair in canonical (index) order and mutate under both
        int a = mon_dist(rng);
        int b = mon_dist(rng);
        if (a > b) {
          std::swap(a, b);
        }
        if (a == b) {
          MonitorGuard guard(*world.monitors[a]);
          ++world.counters[a];
          thisthread::Compute(50);
        } else {
          MonitorGuard guard_a(*world.monitors[a]);
          MonitorGuard guard_b(*world.monitors[b]);
          ++world.counters[a];
          ++world.counters[b];
          thisthread::Compute(50);
        }
        break;
      }
      case 4: {  // timed wait (may be notified by anyone, always times out eventually)
        int i = mon_dist(rng);
        MonitorGuard guard(*world.monitors[i]);
        world.conditions[i]->Wait();
        break;
      }
      case 5: {  // notify
        int i = mon_dist(rng);
        MonitorGuard guard(*world.monitors[i]);
        world.conditions[i]->Notify();
        break;
      }
      case 6: {  // fork a child actor (bounded total and depth)
        if (depth < 2 && world.forks_left > 0) {
          --world.forks_left;
          uint64_t child_seed = rng();
          rt.ForkDetached([&rt, &world, child_seed, depth] {
            RandomActor(rt, world, child_seed, depth + 1);
          });
        }
        break;
      }
    }
  }
}

class StressSweep : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, StressSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

TEST_P(StressSweep, RandomProgramTerminatesWithInvariantsIntact) {
  Config config;
  config.seed = GetParam();
  Runtime rt(config);
  StressWorld world(rt);
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 8; ++i) {
    uint64_t actor_seed = rng();
    rt.ForkDetached([&rt, &world, actor_seed] { RandomActor(rt, world, actor_seed, 0); });
  }
  // Every actor and transient must finish: no deadlock, no lost wakeup (waits are timed).
  EXPECT_EQ(rt.RunUntilQuiescent(300 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_TRUE(rt.quiescent_info().all_threads_done);
  // No monitor left locked.
  for (const auto& monitor : world.monitors) {
    EXPECT_EQ(monitor->owner(), kNoThread);
  }
  // Trace invariants: contention never exceeded entries; waits completed = timeouts + notified.
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_LE(s.ml_contentions, s.ml_enters);
  EXPECT_LE(s.cv_timeouts, s.cv_waits);
  EXPECT_EQ(s.forks, rt.scheduler().total_forks());
  trace::ValidationResult validation = trace::ValidateTrace(rt.tracer());
  EXPECT_TRUE(validation.ok()) << validation.ToString();
}

TEST_P(StressSweep, SameSeedSameTrace) {
  auto run = [](uint64_t seed) {
    Config config;
    config.seed = seed;
    Runtime rt(config);
    StressWorld world(rt);
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 6; ++i) {
      uint64_t actor_seed = rng();
      rt.ForkDetached([&rt, &world, actor_seed] { RandomActor(rt, world, actor_seed, 0); });
    }
    rt.RunUntilQuiescent(300 * kUsecPerSec);
    trace::Summary s = trace::Summarize(rt.tracer());
    long counter_sum = 0;
    for (int c : world.counters) {
      counter_sum += c;
    }
    return std::make_tuple(s.switches, s.ml_enters, s.cv_waits, s.forks, counter_sum,
                           rt.now());
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

TEST_P(StressSweep, MultiprocessorRunAlsoTerminates) {
  Config config;
  config.seed = GetParam();
  config.processors = 3;
  Runtime rt(config);
  StressWorld world(rt);
  std::mt19937_64 rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 8; ++i) {
    uint64_t actor_seed = rng();
    rt.ForkDetached([&rt, &world, actor_seed] { RandomActor(rt, world, actor_seed, 0); });
  }
  EXPECT_EQ(rt.RunUntilQuiescent(300 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_TRUE(rt.quiescent_info().all_threads_done);
  for (const auto& monitor : world.monitors) {
    EXPECT_EQ(monitor->owner(), kNoThread);
  }
}

}  // namespace
}  // namespace pcr
