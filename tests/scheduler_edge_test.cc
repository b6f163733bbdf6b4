// Edge cases of the scheduler's machinery: tick-grid math, epoch validation, run-loop
// boundaries, stack accounting, flag interactions.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/pcr/condition.h"
#include "src/pcr/interrupt.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/trace/stats.h"

namespace pcr {
namespace {

TEST(GridDeadlineTest, RoundsUpInWholeQuanta) {
  Runtime rt;  // quantum 50 ms; now == 0
  Scheduler& s = rt.scheduler();
  EXPECT_EQ(s.GridDeadline(0), 0);
  EXPECT_EQ(s.GridDeadline(1), 50 * kUsecPerMsec);
  EXPECT_EQ(s.GridDeadline(50 * kUsecPerMsec), 50 * kUsecPerMsec);
  EXPECT_EQ(s.GridDeadline(50 * kUsecPerMsec + 1), 100 * kUsecPerMsec);
  EXPECT_EQ(s.GridDeadline(120 * kUsecPerMsec), 150 * kUsecPerMsec);
}

TEST(RunLoopTest, DeadlineExactlyOnTickStillFiresTimersNextRun) {
  // The regression behind the slack-process bug: a RunFor ending exactly on a tick must not
  // swallow that tick.
  Runtime rt;
  int wakeups = 0;
  rt.ForkDetached([&] {
    for (int i = 0; i < 4; ++i) {
      thisthread::Sleep(50 * kUsecPerMsec);
      ++wakeups;
    }
  });
  for (int chunk = 0; chunk < 25; ++chunk) {
    rt.RunFor(10 * kUsecPerMsec);  // chunk boundaries land on every tick
  }
  EXPECT_EQ(wakeups, 4);
  rt.Shutdown();
}

TEST(RunLoopTest, RunForZeroIsANoOp) {
  Runtime rt;
  rt.ForkDetached([] { thisthread::Compute(kUsecPerMsec); });
  EXPECT_EQ(rt.RunFor(0), RunStatus::kDeadline);
  EXPECT_EQ(rt.now(), 0);
  rt.Shutdown();
}

TEST(RunLoopTest, QuiescentRunAdvancesClockToDeadline) {
  Runtime rt;  // nothing to do at all
  EXPECT_EQ(rt.RunFor(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(rt.now(), kUsecPerSec);
}

TEST(RunLoopTest, TinyQuantumStillTerminates) {
  Config config;
  config.quantum = 1;  // one-microsecond ticks: worst case for the tick loop
  Runtime rt(config);
  bool done = false;
  rt.ForkDetached([&] {
    thisthread::Sleep(200);
    thisthread::Compute(300);
    done = true;
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_TRUE(done);
}

// The timer wakeups a run made, in firing order: (thread, virtual time).
std::vector<std::pair<ThreadId, Usec>> TimerFires(const trace::Tracer& tracer) {
  std::vector<std::pair<ThreadId, Usec>> fires;
  for (const trace::Event& e : tracer.view()) {
    if (e.type == trace::EventType::kTimerFire) {
      fires.emplace_back(e.thread, e.time_us);
    }
  }
  return fires;
}

TEST(RunLoopTest, TimersDueAtOneTickWakeInArmingOrder) {
  // `first` yields before it sleeps, so the three arm in the order second, third, first.
  Runtime rt;  // quantum 50 ms: every sleep below is due at the 100 ms tick
  ThreadId first = rt.Fork([] {
    thisthread::Yield();
    thisthread::Sleep(60 * kUsecPerMsec);
  });
  ThreadId second = rt.Fork([] { thisthread::Sleep(60 * kUsecPerMsec); });
  ThreadId third = rt.Fork([] { thisthread::Sleep(60 * kUsecPerMsec); });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  const Usec tick = 100 * kUsecPerMsec;
  EXPECT_EQ(TimerFires(rt.tracer()),
            (std::vector<std::pair<ThreadId, Usec>>{{second, tick}, {third, tick}, {first, tick}}));
}

TEST(RunLoopTest, ATimerArmedLaterForAnEarlierTickFiresFirst) {
  Runtime rt;
  ThreadId late = rt.Fork([] { thisthread::Sleep(200 * kUsecPerMsec); });   // arms first
  ThreadId early = rt.Fork([] { thisthread::Sleep(60 * kUsecPerMsec); });   // arms second
  ThreadId same = rt.Fork([] { thisthread::Sleep(160 * kUsecPerMsec); });  // shares late's tick
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(TimerFires(rt.tracer()),
            (std::vector<std::pair<ThreadId, Usec>>{{early, 100 * kUsecPerMsec},
                                                    {late, 200 * kUsecPerMsec},
                                                    {same, 200 * kUsecPerMsec}}));
}

TEST(RunLoopTest, AStaleTimerDoesNotKeepTheRunLoopTicking) {
  // The waiter is notified at 1 ms, so its 100 ms timeout entry goes stale. Nothing else is
  // pending, so the run is quiescent at once, before the first tick.
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", 100 * kUsecPerMsec);
  bool notified = false;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    notified = cv.Wait();
  });
  rt.ForkDetached([&] {
    thisthread::Compute(kUsecPerMsec);
    MonitorGuard guard(lock);
    cv.Notify();
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_TRUE(notified);
  EXPECT_LT(rt.now(), 50 * kUsecPerMsec);
  EXPECT_TRUE(TimerFires(rt.tracer()).empty());
}

TEST(EpochTest, NotifyAfterTimeoutDoesNotDoubleWake) {
  // A NOTIFY issued after the waiter already timed out (stale queue entry) must be a no-op for
  // that waiter and should still be available for the next one.
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", 40 * kUsecPerMsec);
  int first_wakeups = 0;
  bool second_got_notify = false;
  rt.ForkDetached([&] {
    {
      MonitorGuard guard(lock);
      cv.Wait();  // times out at the 50 ms tick
      ++first_wakeups;
    }
    thisthread::Sleep(200 * kUsecPerMsec);
    EXPECT_EQ(first_wakeups, 1);  // never woken again by the late notify
  });
  rt.ForkDetached([&] {
    thisthread::Sleep(100 * kUsecPerMsec);  // after the first waiter timed out
    {
      MonitorGuard guard(lock);
      cv.Notify();  // nobody valid is waiting: must not resurrect the stale entry
    }
    MonitorGuard guard(lock);
    second_got_notify = cv.Wait();  // and the stale entry must not eat this thread's timeout
  });
  rt.RunFor(kUsecPerSec);
  EXPECT_EQ(first_wakeups, 1);
  EXPECT_FALSE(second_got_notify);  // the earlier notify found no one; this wait times out
  rt.Shutdown();
}

TEST(FlagInteractionTest, PenalizedThreadCanStillBeBoosted) {
  // A thread that YieldButNotToMe'd can immediately receive a directed yield: the boost wins.
  Runtime rt;
  std::vector<std::string> order;
  ThreadId penalized = rt.ForkDetached(
      [&] {
        thisthread::YieldButNotToMe();
        order.push_back("penalized-resumed");
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached(
      [&] {
        order.push_back("donor");
        rt.scheduler().DirectedYield(penalized);
        order.push_back("donor-after");
      },
      ForkOptions{.priority = 4});
  rt.RunUntilQuiescent(kUsecPerSec);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "donor");
  EXPECT_EQ(order[1], "penalized-resumed");  // boost overrides the penalty
}

TEST(FlagInteractionTest, PenaltyDoesNotSurviveBlocking) {
  Runtime rt;
  bool low_ran_before_high = false;
  bool low_ran = false;
  rt.ForkDetached(
      [&] {
        thisthread::YieldButNotToMe();  // penalty...
        thisthread::Sleep(60 * kUsecPerMsec);  // ...but then we block: penalty is moot
        low_ran_before_high = !low_ran;  // after the sleep we outrank priority 3 again
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached([&] {
    thisthread::Sleep(60 * kUsecPerMsec);
    thisthread::Compute(30 * kUsecPerMsec);
    low_ran = true;
  },
                  ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(low_ran_before_high);
  EXPECT_TRUE(low_ran);
}

TEST(StackAccountingTest, ReservationTracksLiveFibers) {
  Config config;
  config.stack_bytes = 64 * 1024;
  Runtime rt(config);
  EXPECT_EQ(rt.scheduler().stack_bytes_reserved(), 0u);
  rt.ForkDetached([&] {
    std::vector<ThreadId> children;
    for (int i = 0; i < 10; ++i) {
      children.push_back(rt.Fork([] { thisthread::Sleep(10 * kUsecPerMsec); }));
    }
    for (ThreadId child : children) {
      rt.Join(child);
    }
  });
  rt.RunUntilQuiescent(5 * kUsecPerSec);
  // Everything joined: only reaped stacks remain outstanding for unfinished threads (none).
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.max_live_threads, 11);
  EXPECT_GE(rt.scheduler().peak_stack_bytes_reserved(), 11u * 64 * 1024);
  rt.Shutdown();
}

TEST(InterruptEdgeTest, PostAtPastTimeDeliversImmediately) {
  Runtime rt;
  InterruptSource source(rt.scheduler(), "dev");
  Usec got_at = -1;
  rt.ForkDetached([&] {
    thisthread::Compute(20 * kUsecPerMsec);
    source.PostAt(5 * kUsecPerMsec, 1);  // in the past: clamped to now
    got_at = rt.now();
  });
  rt.ForkDetached([&] { source.Await(); }, ForkOptions{.priority = 6});
  rt.RunFor(kUsecPerSec);
  EXPECT_GE(got_at, 20 * kUsecPerMsec);
  rt.Shutdown();
}

TEST(InterruptEdgeTest, MultipleWaitersServedFifo) {
  Runtime rt;
  InterruptSource source(rt.scheduler(), "dev");
  std::vector<int> served;
  for (int i = 0; i < 3; ++i) {
    rt.ForkDetached([&, i] {
      source.Await();
      served.push_back(i);
    });
  }
  for (int i = 0; i < 3; ++i) {
    source.PostAt((10 + i * 60) * kUsecPerMsec, static_cast<uint64_t>(i));
  }
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(served, (std::vector<int>{0, 1, 2}));
}

TEST(PriorityClampTest, OutOfRangePrioritiesAreClamped) {
  Runtime rt;
  int observed_low = 0;
  int observed_high = 0;
  rt.ForkDetached([&] { observed_low = rt.scheduler().priority(); },
                  ForkOptions{.priority = -5});
  rt.ForkDetached([&] { observed_high = rt.scheduler().priority(); },
                  ForkOptions{.priority = 99});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(observed_low, kMinPriority);
  EXPECT_EQ(observed_high, kMaxPriority);
}

TEST(TryEnterTest, SucceedsAndExcludesOthers) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  bool second_failed = false;
  rt.ForkDetached([&] {
    ASSERT_TRUE(lock.TryEnter());
    thisthread::Sleep(60 * kUsecPerMsec);
    lock.Exit();
  });
  rt.ForkDetached([&] {
    thisthread::Compute(kUsecPerMsec);
    second_failed = !lock.TryEnter();
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(second_failed);
}

TEST(DetachEdgeTest, DetachAfterFinishReapsImmediately) {
  Config config;
  config.stack_bytes = 64 * 1024;
  Runtime rt(config);
  ThreadId child = 0;
  rt.ForkDetached([&] {
    child = rt.Fork([] {});
    thisthread::Sleep(60 * kUsecPerMsec);  // child finishes while we sleep
    size_t before = rt.scheduler().stack_bytes_reserved();
    rt.Detach(child);  // late detach must still release the child's stack
    EXPECT_LT(rt.scheduler().stack_bytes_reserved(), before);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
}

TEST(TracerWindowTest, SummaryOfEmptyTraceIsZero) {
  Runtime rt;
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.forks, 0);
  EXPECT_EQ(s.switches, 0);
  EXPECT_EQ(s.window_us, 0);
  EXPECT_EQ(s.max_live_threads, 0);
}

// ---------------------------------------------------------------------------
// Charge boundaries. A Compute charge that no other thread can observe advances the clock in
// place; every charge that ends on a tick, an interrupt or the RunFor deadline, or that follows
// the caller readying a stronger thread, must still reach the run loop. Each case pins the exact
// virtual times and order of events. Default costs: 30 us per dispatch, 250 per fork, 2 per
// monitor enter and exit, 5 per CV wait and notify, 10 per interrupt dispatch.
// ---------------------------------------------------------------------------

// Appends "name@now" per step, so one comparison checks order and virtual times together.
struct StepLog {
  std::string text;
  void Mark(const char* name) {
    if (!text.empty()) {
      text += ' ';
    }
    text += name;
    text += '@';
    text += std::to_string(thisthread::Now());
  }
};

TEST(ChargeBoundaryTest, ChargeEndingOnATickRotatesToAnEqualPeer) {
  // A is dispatched at 0 and starts at 30. Its charge ends exactly at the 1000 us tick, where
  // the tick rotates it behind the equal-priority B; one microsecond shorter, A keeps the
  // processor and B waits for A to finish.
  auto run = [](Usec charge) {
    Config config;
    config.quantum = kUsecPerMsec;
    Runtime rt(config);
    StepLog log;
    rt.ForkDetached([&log, charge] {
      log.Mark("A");
      thisthread::Compute(charge);
      log.Mark("A");
    });
    rt.ForkDetached([&log] { log.Mark("B"); });
    EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
    return log.text;
  };
  EXPECT_EQ(run(970), "A@30 B@1030 A@1060");
  EXPECT_EQ(run(969), "A@30 A@999 B@1029");
}

TEST(ChargeBoundaryTest, ChargeEndingAtAnInterruptLetsTheHandlerRunFirst) {
  // W's charge ends at 500, exactly when the device event is due. The priority-6 handler is
  // woken there and preempts W before W resumes: it starts at 530 and charges 10 to consume the
  // event, and W resumes only after a fresh dispatch.
  Runtime rt;
  InterruptSource device(rt.scheduler(), "dev");
  StepLog log;
  rt.ForkDetached(
      [&] {
        device.Await();
        log.Mark("H");
      },
      ForkOptions{.priority = 6});
  rt.ForkDetached(
      [&] {
        log.Mark("W");
        thisthread::Compute(440);
        log.Mark("W");
      },
      ForkOptions{.priority = 3});
  device.PostAt(500, 1);
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(log.text, "W@60 H@540 W@570");
}

TEST(ChargeBoundaryTest, ChargeCrossingARunForDeadlineSplitsAcrossCalls) {
  Runtime rt;
  StepLog log;
  ThreadId tid = rt.ForkDetached([&] {
    thisthread::Compute(1000);
    log.Mark("T");
  });
  // The charge runs 30..1030. The first RunFor stops the clock at its deadline and charges
  // only the elapsed part (30 us of dispatch plus 470 of the charge); the rest stays pending.
  EXPECT_EQ(rt.RunFor(500), RunStatus::kDeadline);
  EXPECT_EQ(rt.now(), 500);
  EXPECT_EQ(log.text, "");
  EXPECT_EQ(rt.scheduler().FindThread(tid)->cpu_time, 500);
  EXPECT_EQ(rt.scheduler().FindThread(tid)->remaining, 530);
  EXPECT_EQ(rt.RunFor(1000), RunStatus::kQuiescent);
  EXPECT_EQ(log.text, "T@1030");
  EXPECT_EQ(rt.scheduler().FindThread(tid)->cpu_time, 1030);
  EXPECT_EQ(rt.now(), 1500);
}

TEST(ChargeBoundaryTest, ChargeEndingAtTheDeadlineResumesInTheNextRunFor) {
  Runtime rt;
  StepLog log;
  ThreadId tid = rt.ForkDetached([&] {
    thisthread::Compute(1000);
    log.Mark("T");
  });
  EXPECT_EQ(rt.RunFor(1030), RunStatus::kDeadline);
  EXPECT_EQ(log.text, "");  // the charge is complete, but the thread has not run on
  EXPECT_EQ(rt.scheduler().FindThread(tid)->cpu_time, 1030);
  EXPECT_EQ(rt.scheduler().FindThread(tid)->remaining, 0);
  rt.RunFor(1);
  EXPECT_EQ(log.text, "T@1030");
}

TEST(ChargeBoundaryTest, ForkOfAStrongerChildPreemptsAtTheFork) {
  // The child (priority 5) is ready once TryFork queues it, so the parent's 250 us fork charge
  // is preempted at 30 before any of it elapses, and is paid after the child exits.
  Runtime rt;
  StepLog log;
  rt.ForkDetached(
      [&] {
        log.Mark("P");
        rt.ForkDetached([&] { log.Mark("C"); }, ForkOptions{.priority = 5});
        log.Mark("P");
      },
      ForkOptions{.priority = 3});
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(log.text, "P@30 C@60 P@340");
}

TEST(ChargeBoundaryTest, NotifyOfAStrongerWaiterPreemptsAtTheNotify) {
  // H (priority 5) enters at 32 and waits at 37. N notifies at 67 without holding the lock,
  // so H is ready at once and N's 5 us notify charge is preempted before it elapses. H
  // re-enters the free monitor (97 + 2) and exits; N finishes its charge after a redispatch.
  Config config;
  config.require_lock_for_notify = false;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  StepLog log;
  rt.ForkDetached(
      [&] {
        MonitorGuard guard(lock);
        cv.Wait();
        log.Mark("H");
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached(
      [&] {
        log.Mark("N");
        cv.Notify();
        log.Mark("N");
      },
      ForkOptions{.priority = 3});
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(log.text, "N@67 H@99 N@136");
}

TEST(ChargeBoundaryTest, SelfDemotionPreemptsAtTheSetPriority) {
  // T drops from 5 to 3 while U (priority 4) is ready: SetPriority's 1 us charge is the
  // preemption point, so U runs at once and T pays the charge after U exits.
  Runtime rt;
  StepLog log;
  rt.ForkDetached(
      [&] {
        log.Mark("T");
        thisthread::SetPriority(3);
        log.Mark("T");
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached([&] { log.Mark("U"); }, ForkOptions{.priority = 4});
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(log.text, "T@30 U@60 T@91");
}

TEST(ChargeBoundaryTest, EqualPriorityPeerDoesNotPreempt) {
  Config config;
  config.quantum = kUsecPerMsec;
  Runtime rt(config);
  StepLog log;
  rt.ForkDetached([&] {
    log.Mark("A");
    for (int i = 0; i < 3; ++i) {
      thisthread::Compute(100);
      log.Mark("A");
    }
  });
  rt.ForkDetached([&] { log.Mark("B"); });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(log.text, "A@30 A@130 A@230 A@330 B@360");
}

TEST(FiberSwitchCountTest, ChargesNoOtherThreadObservesCostNoSwitch) {
  // fiber_switches counts real context switches: in at dispatch, out at exit. The 1000
  // charges inside the first quantum advance the clock in place.
  Runtime rt;
  rt.ForkDetached([] {
    for (int i = 0; i < 1000; ++i) {
      thisthread::Compute(1);
    }
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(rt.now(), 1030);
  EXPECT_EQ(rt.scheduler().fiber_switches(), 2);
  const trace::Counter* switches = rt.scheduler().metrics().FindCounter("fiber.switches");
  ASSERT_NE(switches, nullptr);
  EXPECT_EQ(switches->value(), 2);
}

}  // namespace
}  // namespace pcr
