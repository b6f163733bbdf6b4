// Dispatch order under the scheduling modifiers (Section 5.2's YieldButNotToMe penalty and
// directed-yield boost, priority inheritance) and fair share.
//
// The run loop's peeks ask only "what is the best effective priority among ready threads?",
// and while a modifier is live the scheduler keeps that answer until the ready set or a
// modifier changes. Each case below drives one modifier through charges made in place,
// preemptions and ticks, and pins the resulting dispatch order (every kSwitch event as
// thread@time) and trace hash. Debug builds also check every kept answer against a fresh scan.

#include <gtest/gtest.h>

#include <string>

#include "src/explore/hash.h"
#include "src/pcr/checkpoint.h"
#include "src/pcr/interrupt.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"

namespace pcr {
namespace {

// One "thread@time" per kSwitch event, in order (thread 0: the processor went idle).
std::string Dispatches(const trace::Tracer& tracer) {
  std::string text;
  for (const trace::Event& e : tracer.view()) {
    if (e.type == trace::EventType::kSwitch) {
      if (!text.empty()) {
        text += ' ';
      }
      text += std::to_string(e.thread) + '@' + std::to_string(e.time_us);
    }
  }
  return text;
}

Config MillisecondQuantum() {
  Config config;
  config.quantum = kUsecPerMsec;
  return config;
}

// Thread 1 (priority 5) gives the processor away with YieldButNotToMe and stays ready but
// penalized until the next tick, while two priority-3 threads enter a monitor over and over,
// charging in place. The tick ends the penalty and thread 1 preempts.
void PenalizedWhileLowerChargeInPlace(Runtime& rt, MonitorLock& lock) {
  rt.ForkDetached(
      [] {
        for (int i = 0; i < 4; ++i) {
          thisthread::Compute(300);
          thisthread::YieldButNotToMe();
        }
      },
      ForkOptions{.priority = 5});
  for (int t = 0; t < 2; ++t) {
    rt.ForkDetached(
        [&lock] {
          for (int i = 0; i < 40; ++i) {
            MonitorGuard guard(lock);
            thisthread::Compute(60);
          }
        },
        ForkOptions{.priority = 3});
  }
}

TEST(SelectionTest, PenalizedThreadWaitsForTheTickWhileLowerThreadsChargeInPlace) {
  // Thread 4 (priority 6) also wakes on a device interrupt in mid-quantum, preempts, runs
  // briefly and blocks again, so the lower threads resume charging under a live penalty right
  // after a stronger thread left the ready set.
  Runtime rt(MillisecondQuantum());
  MonitorLock lock(rt.scheduler(), "library");
  InterruptSource device(rt.scheduler(), "device");
  PenalizedWhileLowerChargeInPlace(rt, lock);
  rt.ForkDetached(
      [&device] {
        for (int i = 0; i < 3; ++i) {
          device.Await();
          thisthread::Compute(50);
        }
      },
      ForkOptions{.priority = 6});
  for (Usec at : {1500, 2500, 3500}) {
    device.PostAt(at, 0);
  }
  ASSERT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(Dispatches(rt.tracer()),
            "4@0 1@30 2@365 1@1000 3@1335 2@1367 4@1500 2@1590 1@2000 3@2335 4@2500 3@2590 "
            "1@3000 2@3335 3@3367 4@3500 3@3590 1@4000 2@4030 3@4060 2@5000 3@5030 2@5710 "
            "0@7210");
  EXPECT_EQ(explore::TraceHash(rt.tracer()), 11451419646180303524u);
}

TEST(SelectionTest, DirectedYieldDoneeOutranksHigherPrioritiesUntilTheTick) {
  // Thread 3 (priority 2) receives a directed yield from thread 1 (priority 6) and, boosted,
  // keeps the processor through its monitored charges although thread 2 (priority 4) is ready.
  // The tick ends the boost and thread 2 takes over.
  Runtime rt(MillisecondQuantum());
  MonitorLock lock(rt.scheduler(), "library");
  ThreadId donee = kNoThread;
  rt.ForkDetached(
      [&rt, &donee] {
        thisthread::Compute(100);
        rt.scheduler().DirectedYield(donee);
        thisthread::Compute(100);
      },
      ForkOptions{.priority = 6});
  rt.ForkDetached(
      [] {
        for (int i = 0; i < 3; ++i) {
          thisthread::Compute(400);
        }
      },
      ForkOptions{.priority = 4});
  donee = rt.ForkDetached(
      [&lock] {
        for (int i = 0; i < 30; ++i) {
          MonitorGuard guard(lock);
          thisthread::Compute(50);
        }
      },
      ForkOptions{.priority = 2});
  ASSERT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(Dispatches(rt.tracer()), "1@0 3@135 1@1000 2@1130 3@2360 0@3175");
  EXPECT_EQ(explore::TraceHash(rt.tracer()), 13607942952299616671u);
}

TEST(SelectionTest, InheritedPriorityFlowsThroughATwoMonitorChain) {
  // Thread 1 (priority 1) holds `inner`; thread 2 (priority 2) holds `outer` and blocks on
  // `inner`; thread 3 (priority 6) blocks on `outer`. The donation raises both holders to 6, so
  // thread 1 finishes its monitored charges ahead of the priority-4 thread 4.
  Config config = MillisecondQuantum();
  config.priority_inheritance = true;
  Runtime rt(config);
  MonitorLock outer(rt.scheduler(), "outer");
  MonitorLock inner(rt.scheduler(), "inner");
  rt.ForkDetached(
      [&inner] {
        MonitorGuard guard(inner);
        for (int i = 0; i < 40; ++i) {
          thisthread::Compute(70);
        }
      },
      ForkOptions{.priority = 1});
  rt.ForkDetached(
      [&outer, &inner] {
        thisthread::Sleep(1);
        MonitorGuard a(outer);
        MonitorGuard b(inner);
        thisthread::Compute(50);
      },
      ForkOptions{.priority = 2});
  rt.ForkDetached(
      [&outer] {
        thisthread::Sleep(2 * kUsecPerMsec);
        MonitorGuard guard(outer);
        thisthread::Compute(50);
      },
      ForkOptions{.priority = 6});
  rt.ForkDetached(
      [] {
        thisthread::Sleep(2 * kUsecPerMsec);
        for (int i = 0; i < 4; ++i) {
          thisthread::Compute(300);
        }
      },
      ForkOptions{.priority = 4});
  ASSERT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(Dispatches(rt.tracer()),
            "3@0 4@30 2@60 1@90 2@1000 1@1034 3@2000 1@2032 2@3048 4@3128 2@4358 3@4390 "
            "2@4472 1@4504 0@4536");
  EXPECT_EQ(explore::TraceHash(rt.tracer()), 4934043417872933649u);
}

TEST(SelectionTest, FairShareBoostedDoneePreemptsAndItsDonationDoesNot) {
  // Under fair share only a directed-yield donee preempts between ticks. Thread 2 (priority
  // 6) takes the monitor and is rotated out at the first tick still holding it. Thread 3
  // receives a directed yield, then, still boosted, blocks on that monitor: with priority
  // inheritance the ready thread 2 inherits the donee's effective priority, kMaxPriority + 1,
  // which is not a boost and so must not preempt the running thread.
  Config config = MillisecondQuantum();
  config.scheduling = SchedulingPolicy::kFairShare;
  config.priority_inheritance = true;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "shared");
  ThreadId donee = kNoThread;
  rt.ForkDetached(
      [&rt, &donee] {
        for (int i = 0; i < 3; ++i) {
          thisthread::Compute(150);
          rt.scheduler().DirectedYield(donee);
        }
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached(
      [&lock] {
        MonitorGuard guard(lock);
        for (int i = 0; i < 10; ++i) {
          thisthread::Compute(200);
        }
      },
      ForkOptions{.priority = 6});
  donee = rt.ForkDetached(
      [&lock] {
        thisthread::Compute(100);
        MonitorGuard guard(lock);
        thisthread::Compute(100);
      },
      ForkOptions{.priority = 2});
  rt.ForkDetached(
      [] {
        for (int i = 0; i < 6; ++i) {
          thisthread::Compute(250);
        }
      },
      ForkOptions{.priority = 4});
  ASSERT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(Dispatches(rt.tracer()),
            "2@0 1@1000 3@1185 4@1317 1@2000 2@2340 4@3000 2@3877 3@4311 0@4443");
  EXPECT_EQ(explore::TraceHash(rt.tracer()), 10847651906329621637u);
}

// The penalized-thread world, run to 2450 us (mid-quantum, thread 1 penalized and ready) and
// then to the end. With `checkpoint`, a snapshot is taken at the split, the rest is run, and
// the snapshot is restored and the rest run again; returns the last run's trace hash.
uint64_t PenaltySplitRun(bool checkpoint) {
  Runtime rt(MillisecondQuantum());
  MonitorLock lock(rt.scheduler(), "library");
  PenalizedWhileLowerChargeInPlace(rt, lock);
  rt.RunFor(2450);
  EXPECT_TRUE(rt.scheduler().FindThread(1)->penalized);
  EXPECT_EQ(rt.scheduler().FindThread(1)->state, ThreadState::kReady);
  if (!checkpoint) {
    rt.RunUntilQuiescent(kUsecPerSec);
    return explore::TraceHash(rt.tracer());
  }
  Checkpoint snapshot(rt.scheduler(), rt.tracer(), nullptr);
  rt.RunUntilQuiescent(kUsecPerSec);
  const uint64_t first = explore::TraceHash(rt.tracer());
  snapshot.Restore();
  EXPECT_TRUE(rt.scheduler().FindThread(1)->penalized);
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(explore::TraceHash(rt.tracer()), first);
  return first;
}

TEST(SelectionTest, RestoreWhileAPenaltyIsLiveMatchesTheRunFromZero) {
  const uint64_t from_zero = PenaltySplitRun(/*checkpoint=*/false);
  EXPECT_EQ(from_zero, 5814832542946911976u);
  if (!Checkpoint::Supported()) {
    GTEST_SKIP() << "checkpointing is unsupported in this build";
  }
  EXPECT_EQ(PenaltySplitRun(/*checkpoint=*/true), from_zero);
}

}  // namespace
}  // namespace pcr
