// Property-style parameterized sweeps over the scheduler's configuration space: quantum sizes,
// processor counts, seeds, population sizes. Each TEST_P asserts an invariant that must hold at
// every point of the sweep.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "src/paradigm/bounded_buffer.h"
#include "src/paradigm/exploiter.h"
#include "src/pcr/condition.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/trace/stats.h"

namespace pcr {
namespace {

// --- Quantum sweep -------------------------------------------------------------------------

class QuantumSweep : public ::testing::TestWithParam<Usec> {};

INSTANTIATE_TEST_SUITE_P(Quanta, QuantumSweep,
                         ::testing::Values(1 * kUsecPerMsec, 5 * kUsecPerMsec,
                                           20 * kUsecPerMsec, 50 * kUsecPerMsec,
                                           200 * kUsecPerMsec),
                         [](const auto& info) {
                           return std::to_string(info.param / kUsecPerMsec) + "ms";
                         });

TEST_P(QuantumSweep, SleepAlwaysWakesOnTheGrid) {
  Config config;
  config.quantum = GetParam();
  Runtime rt(config);
  std::vector<Usec> wake_times;
  rt.ForkDetached([&] {
    for (Usec request : {Usec{1}, Usec{100}, 3 * kUsecPerMsec, 77 * kUsecPerMsec}) {
      thisthread::Sleep(request);
      wake_times.push_back(rt.now());
    }
  });
  rt.RunUntilQuiescent(5 * kUsecPerSec);
  ASSERT_EQ(wake_times.size(), 4u);
  for (Usec t : wake_times) {
    // Wakeups land on (or a few dispatch-costs after) a quantum boundary.
    EXPECT_LE(t % GetParam(), 200) << "quantum=" << GetParam() << " wake=" << t;
  }
}

TEST_P(QuantumSweep, EqualPriorityHogsShareWithinOneQuantum) {
  Config config;
  config.quantum = GetParam();
  Runtime rt(config);
  std::vector<Usec> finishes;
  for (int i = 0; i < 3; ++i) {
    rt.ForkDetached([&] {
      thisthread::Compute(20 * GetParam());
      finishes.push_back(rt.now());
    });
  }
  rt.RunUntilQuiescent(200 * GetParam() * 3);
  ASSERT_EQ(finishes.size(), 3u);
  // Round-robin: all three finish within ~one quantum of each other.
  EXPECT_LE(finishes.back() - finishes.front(), 2 * GetParam());
}

TEST_P(QuantumSweep, CvTimeoutGranularityEqualsQuantum) {
  Config config;
  config.quantum = GetParam();
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", /*timeout=*/1);  // minimal timeout: remainder of the quantum
  Usec woke = -1;
  rt.ForkDetached([&] {
    thisthread::Compute(GetParam() / 3);  // start mid-window
    MonitorGuard guard(lock);
    cv.Wait();
    woke = rt.now();
  });
  rt.RunUntilQuiescent(10 * GetParam());
  ASSERT_GE(woke, 0);
  EXPECT_GE(woke, GetParam());
  EXPECT_LT(woke, 2 * GetParam());
}

// --- Processor sweep -----------------------------------------------------------------------

class ProcessorSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Processors, ProcessorSweep, ::testing::Values(1, 2, 3, 4, 8),
                         [](const auto& info) { return 'p' + std::to_string(info.param); });

TEST_P(ProcessorSweep, MutualExclusionHolds) {
  Config config;
  config.processors = GetParam();
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 2 * GetParam() + 2; ++i) {
    rt.ForkDetached([&] {
      for (int j = 0; j < 4; ++j) {
        MonitorGuard guard(lock);
        ++inside;
        max_inside = std::max(max_inside, inside);
        thisthread::Compute(kUsecPerMsec);
        --inside;
      }
    });
  }
  EXPECT_EQ(rt.RunUntilQuiescent(30 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(max_inside, 1);
}

TEST_P(ProcessorSweep, WorkIsConserved) {
  // Total CPU time consumed equals total CPU time requested, regardless of parallelism.
  Config config;
  config.processors = GetParam();
  config.costs = CostModel{};
  config.costs.context_switch = 0;  // isolate the requested compute
  config.costs.fork = 0;
  Runtime rt(config);
  constexpr Usec kWork = 10 * kUsecPerMsec;
  constexpr int kThreads = 6;
  for (int i = 0; i < kThreads; ++i) {
    rt.ForkDetached([&] { thisthread::Compute(kWork); });
  }
  rt.RunUntilQuiescent(10 * kUsecPerSec);
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.busy_time_us, kThreads * kWork);
}

TEST_P(ProcessorSweep, MakespanShrinksWithParallelism) {
  Config config;
  config.processors = GetParam();
  Runtime rt(config);
  Usec finished = 0;
  rt.ForkDetached([&] {
    paradigm::ParallelFor(rt, 24, [](int64_t) { thisthread::Compute(2 * kUsecPerMsec); });
    finished = rt.now();
  });
  rt.RunUntilQuiescent(30 * kUsecPerSec);
  Usec serial = 24 * 2 * kUsecPerMsec;
  // Perfect speedup is serial/P; allow generous scheduling overhead.
  EXPECT_LE(finished, serial / GetParam() + serial / 4 + 10 * kUsecPerMsec)
      << "processors=" << GetParam();
  EXPECT_GE(finished, serial / GetParam());
}

TEST_P(ProcessorSweep, NotifyWakesExactlyOneEverywhere) {
  Config config;
  config.processors = GetParam();
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    rt.ForkDetached([&] {
      MonitorGuard guard(lock);
      cv.Wait();
      ++woken;
    });
  }
  rt.ForkDetached([&] {
    thisthread::Compute(5 * kUsecPerMsec);
    MonitorGuard guard(lock);
    cv.Notify();
  });
  rt.RunFor(kUsecPerSec);
  EXPECT_EQ(woken, 1);
  rt.Shutdown();
}

// --- Population sweep ------------------------------------------------------------------------

class PopulationSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Threads, PopulationSweep, ::testing::Values(1, 3, 10, 40, 150),
                         [](const auto& info) { return 'n' + std::to_string(info.param); });

TEST_P(PopulationSweep, StrictPriorityCompletionOrder) {
  // CPU-bound threads at distinct priorities complete strictly in priority order, regardless
  // of how many there are or the order they were forked in.
  Runtime rt;
  int n = GetParam();
  std::vector<int> completion_order;
  for (int i = 0; i < n; ++i) {
    int priority = 1 + (i * 5 + 3) % 7;  // scrambled fork order
    rt.ForkDetached(
        [&completion_order, priority] {
          thisthread::Compute(500);
          completion_order.push_back(priority);
        },
        ForkOptions{.priority = priority});
  }
  rt.RunUntilQuiescent(60 * kUsecPerSec);
  ASSERT_EQ(completion_order.size(), static_cast<size_t>(n));
  for (size_t i = 1; i < completion_order.size(); ++i) {
    EXPECT_GE(completion_order[i - 1], completion_order[i]);
  }
}

TEST_P(PopulationSweep, BroadcastWakesEveryWaiter) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  int woken = 0;
  int n = GetParam();
  for (int i = 0; i < n; ++i) {
    rt.ForkDetached([&] {
      MonitorGuard guard(lock);
      cv.Wait();
      ++woken;
    });
  }
  rt.ForkDetached(
      [&] {
        thisthread::Compute(10 * kUsecPerMsec);
        MonitorGuard guard(lock);
        cv.Broadcast();
      },
      ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(60 * kUsecPerSec);
  EXPECT_EQ(woken, n);
}

TEST_P(PopulationSweep, BoundedBufferConservesItems) {
  Runtime rt;
  paradigm::BoundedBuffer<int> buffer(rt.scheduler(), "b", 4);
  int n = GetParam();
  int total_consumed = 0;
  long checksum = 0;
  for (int p = 0; p < 3; ++p) {
    rt.ForkDetached([&, p] {
      for (int i = 0; i < n; ++i) {
        buffer.Put(p * 1000 + i);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    rt.ForkDetached([&] {
      while (total_consumed < 3 * n) {
        std::optional<int> item = buffer.Take();
        if (!item.has_value()) {
          return;
        }
        ++total_consumed;
        checksum += *item;
      }
      buffer.Close();
    });
  }
  EXPECT_EQ(rt.RunUntilQuiescent(120 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(total_consumed, 3 * n);
  long expected = 0;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < n; ++i) {
      expected += p * 1000 + i;
    }
  }
  EXPECT_EQ(checksum, expected);
}

// --- Seed sweep ------------------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 2u, 42u, 1234u, 99999u),
                         [](const auto& info) { return 's' + std::to_string(info.param); });

TEST_P(SeedSweep, SystemDaemonAlwaysUnwedgesInversion) {
  // The donation target is random; the rescue must work for every seed.
  Config config;
  config.seed = GetParam();
  config.enable_system_daemon = true;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "resource");
  bool high_completed = false;
  rt.ForkDetached(
      [&] {
        MonitorGuard guard(lock);
        thisthread::Compute(100 * kUsecPerMsec);
      },
      ForkOptions{.priority = 1});
  rt.ForkDetached(
      [&] {
        thisthread::Sleep(30 * kUsecPerMsec);
        thisthread::Compute(60 * kUsecPerSec);
      },
      ForkOptions{.priority = 4});
  rt.ForkDetached(
      [&] {
        thisthread::Sleep(100 * kUsecPerMsec);
        MonitorGuard guard(lock);
        high_completed = true;
      },
      ForkOptions{.priority = 6});
  rt.RunFor(30 * kUsecPerSec);
  EXPECT_TRUE(high_completed) << "seed=" << GetParam();
  rt.Shutdown();
}

TEST_P(SeedSweep, RerunWithSameSeedIsBitIdentical) {
  auto run = [](uint64_t seed) {
    Config config;
    config.seed = seed;
    config.enable_system_daemon = true;
    Runtime rt(config);
    MonitorLock lock(rt.scheduler(), "m");
    Condition cv(lock, "cv", 30 * kUsecPerMsec);
    for (int i = 0; i < 6; ++i) {
      rt.ForkDetached([&] {
        for (int j = 0; j < 20; ++j) {
          MonitorGuard guard(lock);
          cv.Wait();
        }
      });
    }
    rt.RunFor(5 * kUsecPerSec);
    trace::Summary s = trace::Summarize(rt.tracer());
    rt.Shutdown();
    return std::make_tuple(s.switches, s.cv_waits, s.cv_timeouts, s.ml_enters);
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

// --- Fork-limit sweep --------------------------------------------------------------------------

class ForkLimitSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Limits, ForkLimitSweep, ::testing::Values(2, 4, 16, 64),
                         [](const auto& info) { return "max" + std::to_string(info.param); });

TEST_P(ForkLimitSweep, WaitModeCompletesAllWorkUnderAnyLimit) {
  Config config;
  config.max_threads = GetParam();
  config.fork_failure = ForkFailureMode::kWait;
  Runtime rt(config);
  int completed = 0;
  rt.ForkDetached([&] {
    for (int i = 0; i < 3 * GetParam(); ++i) {
      rt.ForkDetached([&] {
        thisthread::Compute(kUsecPerMsec);
        ++completed;
      });
    }
  });
  EXPECT_EQ(rt.RunUntilQuiescent(60 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(completed, 3 * GetParam());
  // The limit was actually respected at all times.
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_LE(s.max_live_threads, GetParam());
}

}  // namespace
}  // namespace pcr
