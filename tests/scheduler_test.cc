// Core scheduler semantics: forking, priorities, preemption, quantum ticks, sleeps, yields.

#include "src/pcr/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/pcr/runtime.h"

namespace pcr {
namespace {

Config TestConfig() {
  Config config;
  config.quantum = 50 * kUsecPerMsec;
  return config;
}

TEST(SchedulerTest, ForkRunsBodyAndJoinWaits) {
  Runtime rt(TestConfig());
  int value = 0;
  rt.Fork([&] {
    ThreadId child = rt.Fork([&] {
      thisthread::Compute(1000);
      value = 42;
    });
    rt.Join(child);
    EXPECT_EQ(value, 42);
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(rt.quiescent_info().all_threads_done);
}

TEST(SchedulerTest, ComputeAdvancesVirtualTime) {
  Runtime rt(TestConfig());
  Usec observed = -1;
  rt.Fork([&] {
    thisthread::Compute(12'345);
    observed = rt.now();
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  // Dispatch also charges the context-switch cost.
  EXPECT_EQ(observed, 12'345 + rt.config().costs.context_switch);
}

TEST(SchedulerTest, HostContextTakesNoVirtualTime) {
  Runtime rt(TestConfig());
  rt.scheduler().Compute(5000);  // host context: no-op
  EXPECT_EQ(rt.now(), 0);
}

TEST(SchedulerTest, StrictPriorityOrdersExecution) {
  Runtime rt(TestConfig());
  std::vector<int> order;
  for (int priority : {2, 6, 4}) {
    rt.ForkDetached(
        [&order, priority] {
          order.push_back(priority);
          thisthread::Compute(100);
        },
        ForkOptions{.priority = priority});
  }
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(order, (std::vector<int>{6, 4, 2}));
}

TEST(SchedulerTest, HigherPriorityWakeupPreemptsMidCompute) {
  Runtime rt(TestConfig());
  Usec high_ran_at = -1;
  InterruptSource device(rt.scheduler(), "device");
  rt.ForkDetached(
      [&] {
        device.Await();
        high_ran_at = rt.now();
      },
      ForkOptions{.name = "handler", .priority = 6});
  rt.ForkDetached([&] { thisthread::Compute(40 * kUsecPerMsec); },
                  ForkOptions{.name = "cruncher", .priority = 3});
  device.PostAt(7 * kUsecPerMsec, 1);
  rt.RunUntilQuiescent(kUsecPerSec);
  // The handler must run at the interrupt time (plus small dispatch costs), far before the
  // cruncher's 40 ms compute would have finished.
  ASSERT_GE(high_ran_at, 7 * kUsecPerMsec);
  EXPECT_LT(high_ran_at, 8 * kUsecPerMsec);
}

TEST(SchedulerTest, EqualPriorityRoundRobinsOnQuantum) {
  Config config = TestConfig();
  Runtime rt(config);
  // Two CPU-bound threads; each should get alternating ~50 ms slices.
  std::vector<std::pair<int, Usec>> finishes;
  for (int i = 0; i < 2; ++i) {
    rt.ForkDetached(
        [&finishes, &rt, i] {
          thisthread::Compute(75 * kUsecPerMsec);
          finishes.emplace_back(i, rt.now());
        },
        ForkOptions{.priority = 4});
  }
  rt.RunUntilQuiescent(kUsecPerSec);
  ASSERT_EQ(finishes.size(), 2u);
  // With round-robin both finish close together (within one quantum), near 150 ms total.
  Usec gap = finishes[1].second - finishes[0].second;
  EXPECT_LE(gap, config.quantum);
  EXPECT_GE(finishes[1].second, 150 * kUsecPerMsec);
}

TEST(SchedulerTest, SleepWakesOnQuantumGrid) {
  Runtime rt(TestConfig());
  Usec woke_at = -1;
  rt.ForkDetached([&] {
    thisthread::Sleep(kUsecPerMsec);  // 1 ms sleep...
    woke_at = rt.now();
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  // ...fires at the 50 ms tick: "the smallest sleep interval is the remainder of the scheduler
  // quantum" (Section 6.3).
  EXPECT_GE(woke_at, 50 * kUsecPerMsec);
  EXPECT_LT(woke_at, 51 * kUsecPerMsec);
}

TEST(SchedulerTest, SleepSpanningMultipleQuantaWakesAtCeilingTick) {
  Runtime rt(TestConfig());
  Usec woke_at = -1;
  rt.ForkDetached([&] {
    thisthread::Sleep(120 * kUsecPerMsec);
    woke_at = rt.now();
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_GE(woke_at, 150 * kUsecPerMsec);
  EXPECT_LT(woke_at, 151 * kUsecPerMsec);
}

TEST(SchedulerTest, YieldRotatesEqualPriorityImmediately) {
  Runtime rt(TestConfig());
  std::vector<int> order;
  rt.ForkDetached([&] {
    order.push_back(1);
    thisthread::Yield();
    order.push_back(3);
  });
  rt.ForkDetached([&] {
    order.push_back(2);
    thisthread::Yield();
    order.push_back(4);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SchedulerTest, PlainYieldOfHighestPriorityThreadReschedulesItself) {
  // Section 5.2: with strict priority, a high-priority thread that plain-YIELDs is immediately
  // rechosen; the lower-priority producer never runs.
  Runtime rt(TestConfig());
  bool low_ran = false;
  std::vector<int> high_progress;
  rt.ForkDetached(
      [&] {
        for (int i = 0; i < 5; ++i) {
          thisthread::Yield();
          high_progress.push_back(i);
          EXPECT_FALSE(low_ran);
        }
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached([&] { low_ran = true; }, ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(high_progress.size(), 5u);
  EXPECT_TRUE(low_ran);  // runs only after the high thread finished
}

TEST(SchedulerTest, YieldButNotToMeRunsLowerPriorityThread) {
  Runtime rt(TestConfig());
  bool low_ran_during_yield = false;
  bool low_ran = false;
  rt.ForkDetached(
      [&] {
        thisthread::YieldButNotToMe();
        low_ran_during_yield = low_ran;
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached([&] { low_ran = true; }, ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(low_ran_during_yield);
}

TEST(SchedulerTest, YieldButNotToMePenaltyEndsAtTick) {
  Config config = TestConfig();
  Runtime rt(config);
  // The penalized thread cedes to an infinite lower-priority cruncher, but only until the next
  // tick ends the penalty; then its higher priority preempts again.
  Usec resumed_at = -1;
  rt.ForkDetached(
      [&] {
        thisthread::Compute(5 * kUsecPerMsec);
        thisthread::YieldButNotToMe();
        resumed_at = rt.now();
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached([&] { thisthread::Compute(10 * kUsecPerSec); }, ForkOptions{.priority = 3});
  rt.RunFor(kUsecPerSec);
  ASSERT_GE(resumed_at, 0);
  // Resumes at the first 50 ms tick.
  EXPECT_GE(resumed_at, config.quantum);
  EXPECT_LT(resumed_at, config.quantum + 2 * kUsecPerMsec);
}

TEST(SchedulerTest, DirectedYieldBoostsDoneeOverPriority) {
  Runtime rt(TestConfig());
  std::vector<std::string> order;
  ThreadId low = rt.ForkDetached(
      [&] {
        order.push_back("low");
        thisthread::Compute(100);
      },
      ForkOptions{.priority = 2});
  rt.ForkDetached(
      [&] {
        order.push_back("mid-before");
        rt.scheduler().DirectedYield(low);
        order.push_back("mid-after");
      },
      ForkOptions{.priority = 4});
  rt.RunUntilQuiescent(kUsecPerSec);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "mid-before");
  EXPECT_EQ(order[1], "low");  // boost outranks the mid thread's higher priority
  EXPECT_EQ(order[2], "mid-after");
}

TEST(SchedulerTest, JoinRethrowsUncaughtException) {
  Runtime rt(TestConfig());
  bool caught = false;
  rt.ForkDetached([&] {
    ThreadId child = rt.Fork([] { throw std::runtime_error("boom"); });
    try {
      rt.Join(child);
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(caught);
}

TEST(SchedulerTest, DoubleJoinIsUsageError) {
  Runtime rt(TestConfig());
  bool second_join_failed = false;
  rt.ForkDetached([&] {
    ThreadId child = rt.Fork([] {});
    rt.Join(child);
    try {
      rt.Join(child);
    } catch (const UsageError&) {
      second_join_failed = true;
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(second_join_failed);
}

TEST(SchedulerTest, JoinAfterDetachIsUsageError) {
  Runtime rt(TestConfig());
  bool failed = false;
  rt.ForkDetached([&] {
    ThreadId child = rt.ForkDetached([] {});
    try {
      rt.Join(child);
    } catch (const UsageError&) {
      failed = true;
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(failed);
}

// Every operation that acts on the calling thread names itself when the host calls it.
TEST(SchedulerTest, ThreadOperationsFromTheHostAreUsageErrors) {
  Runtime rt(TestConfig());
  Scheduler& s = rt.scheduler();
  WaitQueue queue;
  const std::pair<const char*, std::function<void()>> operations[] = {
      {"pcr: YIELD outside a pcr thread", [&] { s.Yield(); }},
      {"pcr: YieldButNotToMe outside a pcr thread", [&] { s.YieldButNotToMe(); }},
      {"pcr: DirectedYield outside a pcr thread", [&] { s.DirectedYield(1); }},
      {"pcr: Sleep outside a pcr thread", [&] { s.Sleep(kUsecPerMsec); }},
      {"pcr: SetPriority outside a pcr thread", [&] { s.SetPriority(kMaxPriority); }},
      {"pcr: JOIN outside a pcr thread", [&] { s.Join(1); }},
      {"pcr: blocking call outside a pcr thread",
       [&] { s.BlockCurrent(BlockReason::kSleep, nullptr, -1); }},
      {"pcr: wait outside a pcr thread", [&] { s.EnqueueCurrentWaiter(queue); }},
  };
  for (const auto& [message, operation] : operations) {
    try {
      operation();
      ADD_FAILURE() << "no UsageError from the host: " << message;
    } catch (const UsageError& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
  EXPECT_TRUE(queue.empty());
}

// DirectedYield looks its target up before it emits or charges anything.
TEST(SchedulerTest, DirectedYieldToAnUnknownThreadIsUsageError) {
  Runtime rt(TestConfig());
  std::string message;
  rt.ForkDetached([&] {
    try {
      rt.scheduler().DirectedYield(99);
    } catch (const UsageError& e) {
      message = e.what();
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(message, "pcr: unknown thread id 99");
  for (const trace::Event& e : rt.tracer().view()) {
    EXPECT_NE(e.type, trace::EventType::kDirectedYield);
  }
}

TEST(SchedulerTest, ForkFailureErrorModeThrows) {
  Config config = TestConfig();
  config.max_threads = 3;
  config.fork_failure = ForkFailureMode::kError;
  Runtime rt(config);
  bool fork_failed = false;
  rt.ForkDetached([&] {
    std::vector<ThreadId> children;
    try {
      for (int i = 0; i < 10; ++i) {
        children.push_back(rt.Fork([] { thisthread::Sleep(10 * kUsecPerMsec); }));
      }
    } catch (const ForkFailed&) {
      fork_failed = true;
    }
    for (ThreadId child : children) {
      rt.Join(child);
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(fork_failed);
}

// A failed FORK names its cause, and cites the live count and the limit only when the limit
// is the cause: an injected failure is not a thread-limit problem.
TEST(SchedulerTest, ForkFailedMessageCitesTheLimitOnlyForThreadLimit) {
  struct FailEveryFork : FaultInjector {
    uint64_t OnFaultPoint(FaultSite site) override { return site == FaultSite::kFork ? 1 : 0; }
  } injector;
  Runtime injected(TestConfig());
  injected.scheduler().set_fault_injector(&injector);
  try {
    injected.Fork([] {});
    ADD_FAILURE() << "the injected FORK failure did not throw";
  } catch (const ForkFailed& e) {
    EXPECT_STREQ(e.what(), "pcr: FORK failed (injected)");
  }

  Config config = TestConfig();
  config.max_threads = 1;
  Runtime limited(config);
  limited.Fork([] {});
  try {
    limited.Fork([] {});
    ADD_FAILURE() << "the FORK past the thread limit did not throw";
  } catch (const ForkFailed& e) {
    EXPECT_STREQ(e.what(), "pcr: FORK failed (thread-limit): 1 live threads at limit 1");
  }
}

TEST(SchedulerTest, ForkFailureWaitModeBlocksUntilResourcesFree) {
  Config config = TestConfig();
  config.max_threads = 3;  // parent + 2 children live at once
  config.fork_failure = ForkFailureMode::kWait;
  Runtime rt(config);
  int completed = 0;
  rt.ForkDetached([&] {
    std::vector<ThreadId> children;
    for (int i = 0; i < 6; ++i) {
      children.push_back(rt.Fork([&] {
        thisthread::Compute(kUsecPerMsec);
        ++completed;
      }));
    }
    for (ThreadId child : children) {
      rt.Join(child);
    }
  });
  EXPECT_EQ(rt.RunUntilQuiescent(10 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(completed, 6);
}

TEST(SchedulerTest, QuiescentInfoReportsBlockedThreads) {
  Runtime rt(TestConfig());
  MonitorLock lock(rt.scheduler(), "m");
  Condition never(lock, "never");  // no timeout: a lost-notify bug would hang here
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    never.Wait();
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  QuiescentInfo info = rt.quiescent_info();
  EXPECT_FALSE(info.all_threads_done);
  ASSERT_EQ(info.blocked_threads.size(), 1u);
  rt.Shutdown();  // unwind the stuck thread before `lock`/`never` go away
}

TEST(SchedulerTest, ShutdownUnwindsBlockedThreadsCleanly) {
  Runtime rt(TestConfig());
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  bool cleaned_up = false;
  rt.ForkDetached([&] {
    struct Sentinel {
      bool* flag;
      ~Sentinel() { *flag = true; }
    } sentinel{&cleaned_up};
    MonitorGuard guard(lock);
    cv.Wait();
  });
  rt.RunFor(10 * kUsecPerMsec);
  EXPECT_FALSE(cleaned_up);
  rt.Shutdown();
  EXPECT_TRUE(cleaned_up);  // destructors on the fiber stack ran
}

TEST(SchedulerTest, RunForStopsAtDeadlineMidCompute) {
  Runtime rt(TestConfig());
  rt.ForkDetached([&] { thisthread::Compute(kUsecPerSec); });
  EXPECT_EQ(rt.RunFor(100 * kUsecPerMsec), RunStatus::kDeadline);
  EXPECT_EQ(rt.now(), 100 * kUsecPerMsec);
  // Resuming continues the same compute.
  EXPECT_EQ(rt.RunFor(2 * kUsecPerSec), RunStatus::kQuiescent);
}

TEST(SchedulerTest, SetPriorityTakesEffectImmediately) {
  Runtime rt(TestConfig());
  std::vector<std::string> order;
  rt.ForkDetached(
      [&] {
        order.push_back("a-high");
        thisthread::SetPriority(2);
        order.push_back("a-low");
      },
      ForkOptions{.priority = 6});
  rt.ForkDetached([&] { order.push_back("b"); }, ForkOptions{.priority = 4});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(order, (std::vector<std::string>{"a-high", "b", "a-low"}));
}

TEST(SchedulerTest, InterruptAwaitForTimesOut) {
  Runtime rt(TestConfig());
  InterruptSource source(rt.scheduler(), "net");
  bool got = true;
  rt.ForkDetached([&] {
    uint64_t payload = 0;
    got = source.AwaitFor(10 * kUsecPerMsec, &payload);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_FALSE(got);
}

TEST(SchedulerTest, InterruptDeliversPayloadsInOrder) {
  Runtime rt(TestConfig());
  InterruptSource source(rt.scheduler(), "keyboard");
  std::vector<uint64_t> received;
  rt.ForkDetached([&] {
    for (int i = 0; i < 3; ++i) {
      received.push_back(source.Await());
    }
  });
  source.PostAt(5 * kUsecPerMsec, 11);
  source.PostAt(6 * kUsecPerMsec, 22);
  source.PostAt(90 * kUsecPerMsec, 33);
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(received, (std::vector<uint64_t>{11, 22, 33}));
}

TEST(SchedulerTest, MultiprocessorRunsThreadsInParallelVirtualTime) {
  Config config = TestConfig();
  config.processors = 2;
  Runtime rt(config);
  std::vector<Usec> finish_times;
  for (int i = 0; i < 2; ++i) {
    rt.ForkDetached([&] {
      thisthread::Compute(100 * kUsecPerMsec);
      finish_times.push_back(rt.now());
    });
  }
  rt.RunUntilQuiescent(kUsecPerSec);
  ASSERT_EQ(finish_times.size(), 2u);
  // On two processors both 100 ms computations overlap: both finish near 100 ms, not 200 ms.
  EXPECT_LT(finish_times[0], 110 * kUsecPerMsec);
  EXPECT_LT(finish_times[1], 110 * kUsecPerMsec);
}

TEST(SchedulerTest, RandomReadyThreadSeedsDeterministically) {
  auto run_once = [] {
    Config config;
    config.seed = 99;
    Runtime rt(config);
    std::vector<ThreadId> picks;
    for (int i = 0; i < 5; ++i) {
      rt.ForkDetached([] { thisthread::Sleep(kUsecPerSec); });
    }
    rt.ForkDetached(
        [&] {
          for (int i = 0; i < 4; ++i) {
            thisthread::Compute(60 * kUsecPerMsec);
            picks.push_back(rt.scheduler().RandomReadyThread());
          }
        },
        ForkOptions{.priority = 6});
    rt.RunFor(kUsecPerSec);
    return picks;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pcr
