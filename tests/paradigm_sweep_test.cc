// Parameterized sweeps over the paradigm library's configuration spaces.

#include <gtest/gtest.h>

#include <tuple>

#include "src/paradigm/bounded_buffer.h"
#include "src/paradigm/one_shot.h"
#include "src/paradigm/slack_process.h"
#include "src/paradigm/work_queue.h"
#include "src/pcr/runtime.h"

namespace paradigm {
namespace {

using pcr::kUsecPerMsec;
using pcr::kUsecPerSec;

// --- BoundedBuffer capacity sweep ---------------------------------------------------------------

class BufferCapacitySweep : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Capacities, BufferCapacitySweep, ::testing::Values(1u, 2u, 7u, 64u, 0u),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("unbounded")
                                                  : "cap" + std::to_string(info.param);
                         });

TEST_P(BufferCapacitySweep, AllItemsFlowInOrderAtAnyCapacity) {
  pcr::Runtime rt;
  BoundedBuffer<int> buffer(rt.scheduler(), "b", GetParam());
  std::vector<int> out;
  rt.ForkDetached([&] {
    for (int i = 0; i < 40; ++i) {
      buffer.Put(i);
    }
    buffer.Close();
  });
  rt.ForkDetached([&] {
    while (auto item = buffer.Take()) {
      out.push_back(*item);
      pcr::thisthread::Compute(300);  // slow consumer forces producer blocking at small caps
    }
  });
  EXPECT_EQ(rt.RunUntilQuiescent(30 * kUsecPerSec), pcr::RunStatus::kQuiescent);
  ASSERT_EQ(out.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
  if (GetParam() != 0) {
    EXPECT_LE(buffer.size(), GetParam());  // capacity was never exceeded
  }
}

// --- SlackProcess: policy x relative priority ----------------------------------------------------

class SlackConfigSweep
    : public ::testing::TestWithParam<std::tuple<SlackPolicy, int /*buffer_priority*/>> {};

std::string SlackConfigName(
    const ::testing::TestParamInfo<std::tuple<SlackPolicy, int>>& info) {
  static const char* names[] = {"none", "yield", "ybntm", "sleep"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) + "_pri" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SlackConfigSweep,
    ::testing::Combine(::testing::Values(SlackPolicy::kNone, SlackPolicy::kYield,
                                         SlackPolicy::kYieldButNotToMe, SlackPolicy::kSleep),
                       ::testing::Values(3, 5)),
    SlackConfigName);

TEST_P(SlackConfigSweep, NoItemIsEverLostOrDuplicated) {
  auto [policy, priority] = GetParam();
  pcr::Runtime rt;
  SlackOptions options;
  options.policy = policy;
  options.priority = priority;
  int64_t flushed = 0;
  long checksum = 0;
  SlackProcess<int> slack(
      rt, "s",
      [&](std::vector<int>&& batch) {
        flushed += static_cast<int64_t>(batch.size());
        for (int v : batch) {
          checksum += v;
        }
      },
      nullptr, options);
  rt.ForkDetached(
      [&] {
        for (int i = 0; i < 60; ++i) {
          pcr::thisthread::Compute(800);
          slack.Submit(i);
        }
      },
      pcr::ForkOptions{.priority = 4});
  rt.RunFor(3 * kUsecPerSec);
  EXPECT_EQ(flushed, 60) << "policy/priority " << static_cast<int>(policy) << "/" << priority;
  EXPECT_EQ(checksum, 60 * 59 / 2);
  rt.Shutdown();
}

// --- WorkQueue worker-count sweep ----------------------------------------------------------------

class WorkerCountSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountSweep, ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) { return 'w' + std::to_string(info.param); });

TEST_P(WorkerCountSweep, CompletesAllWorkWithBoundedParallelism) {
  pcr::Runtime rt;
  WorkQueue pool(rt, "pool", WorkQueueOptions{.workers = GetParam()});
  int in_flight = 0;
  int max_in_flight = 0;
  rt.ForkDetached([&] {
    for (int i = 0; i < 30; ++i) {
      pool.Submit([&] {
        ++in_flight;
        max_in_flight = std::max(max_in_flight, in_flight);
        pcr::thisthread::Sleep(20 * kUsecPerMsec);  // hold the worker across a wakeup
        --in_flight;
      });
    }
    pool.Drain();
  });
  rt.RunFor(60 * kUsecPerSec);
  EXPECT_EQ(pool.completed(), 30);
  EXPECT_LE(max_in_flight, GetParam());  // never more concurrency than workers
  if (GetParam() > 1) {
    EXPECT_GE(max_in_flight, 2);  // and the parallelism is real
  }
  rt.Shutdown();
}

// --- GuardedButton timing grid -------------------------------------------------------------------

class ButtonTimingSweep : public ::testing::TestWithParam<pcr::Usec> {};

INSTANTIATE_TEST_SUITE_P(SecondClickDelays, ButtonTimingSweep,
                         ::testing::Values(50 * kUsecPerMsec,     // too close: ignored
                                           400 * kUsecPerMsec,    // inside the window: fires
                                           1500 * kUsecPerMsec,   // inside the window: fires
                                           5 * kUsecPerSec),      // too late: re-arms instead
                         [](const auto& info) {
                           return 'd' + std::to_string(info.param / kUsecPerMsec) + "ms";
                         });

TEST_P(ButtonTimingSweep, SecondClickFiresOnlyInsideTheWindow) {
  pcr::Usec delay = GetParam();
  pcr::Runtime rt;
  int invocations = 0;
  paradigm::GuardedButtonOptions options;
  options.arming_period = 200 * kUsecPerMsec;
  options.window = 2 * kUsecPerSec;
  paradigm::GuardedButton button(rt, "b", [&] { ++invocations; }, options);
  rt.ForkDetached([&, delay] {
    button.Click();
    pcr::thisthread::Sleep(delay);
    button.Click();
  });
  rt.RunFor(12 * kUsecPerSec);
  bool should_fire = delay >= options.arming_period && delay <= options.window + 200 * kUsecPerMsec;
  EXPECT_EQ(invocations, should_fire ? 1 : 0) << "delay=" << delay;
  rt.Shutdown();
}

}  // namespace
}  // namespace paradigm
