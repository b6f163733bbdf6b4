// Mesa monitor and condition-variable semantics, including the Section 6.1 spurious lock
// conflict and its deferred-reschedule fix, the ownership an exception leaves behind when it
// unwinds out of WAIT, and which threads a shutdown kills while an exception is in flight.

#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/pcr/condition.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/trace/stats.h"

namespace pcr {
namespace {

TEST(MonitorTest, ProvidesMutualExclusion) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 8; ++i) {
    rt.ForkDetached([&] {
      for (int j = 0; j < 5; ++j) {
        MonitorGuard guard(lock);
        ++inside;
        max_inside = std::max(max_inside, inside);
        thisthread::Compute(3 * kUsecPerMsec);  // preemption points inside the critical section
        --inside;
      }
    });
  }
  EXPECT_EQ(rt.RunUntilQuiescent(10 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(max_inside, 1);
}

TEST(MonitorTest, MutualExclusionHoldsOnMultiprocessor) {
  Config config;
  config.processors = 4;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 8; ++i) {
    rt.ForkDetached([&] {
      for (int j = 0; j < 5; ++j) {
        MonitorGuard guard(lock);
        ++inside;
        max_inside = std::max(max_inside, inside);
        thisthread::Compute(2 * kUsecPerMsec);
        --inside;
      }
    });
  }
  EXPECT_EQ(rt.RunUntilQuiescent(10 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(max_inside, 1);
}

TEST(MonitorTest, ContentionIsCountedPerBlockingEntry) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    thisthread::Sleep(60 * kUsecPerMsec);  // hold the lock while blocked
  });
  rt.ForkDetached([&] {
    thisthread::Compute(kUsecPerMsec);  // runs while the holder sleeps
    MonitorGuard guard(lock);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.ml_contentions, 1);
  EXPECT_GE(s.ml_enters, 2);
}

TEST(MonitorTest, UncontendedEntriesDoNotCountContention) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  rt.ForkDetached([&] {
    for (int i = 0; i < 10; ++i) {
      MonitorGuard guard(lock);
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.ml_contentions, 0);
  EXPECT_EQ(s.ml_enters, 10);
}

TEST(MonitorTest, TryEnterFailsWhenHeld) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  bool try_result = true;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    thisthread::Sleep(60 * kUsecPerMsec);
  });
  rt.ForkDetached([&] {
    thisthread::Compute(kUsecPerMsec);  // runs while the holder sleeps
    try_result = lock.TryEnter();
    if (try_result) {
      lock.Exit();
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_FALSE(try_result);
}

TEST(MonitorTest, RecursiveEntryRaisesDeadlockError) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  bool detected = false;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    try {
      lock.Enter();
    } catch (const DeadlockError&) {
      detected = true;
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(detected);
}

TEST(MonitorTest, ExitWithoutOwnershipIsUsageError) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  bool threw = false;
  rt.ForkDetached([&] {
    try {
      lock.Exit();
    } catch (const UsageError&) {
      threw = true;
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(threw);
}

TEST(MonitorTest, LockOrderCycleDetected) {
  // The situation Section 4.4's deadlock avoiders exist to prevent: two threads acquiring two
  // monitors in opposite orders.
  Runtime rt;
  MonitorLock a(rt.scheduler(), "a");
  MonitorLock b(rt.scheduler(), "b");
  bool detected = false;
  rt.ForkDetached([&] {
    MonitorGuard guard_a(a);
    thisthread::Sleep(30 * kUsecPerMsec);  // both threads hold one lock by the first tick
    MonitorGuard guard_b(b);               // blocks: b is held by the other thread
  });
  rt.ForkDetached([&] {
    MonitorGuard guard_b(b);
    thisthread::Sleep(30 * kUsecPerMsec);
    try {
      MonitorGuard guard_a(a);  // closes the cycle: a -> thread1 -> b -> me
    } catch (const DeadlockError&) {
      detected = true;
    }
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_TRUE(detected);
  EXPECT_TRUE(rt.quiescent_info().all_threads_done);  // backing out released the lock
}

TEST(ConditionTest, NotifyWakesExactlyOneWaiter) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  int awake = 0;
  for (int i = 0; i < 3; ++i) {
    rt.ForkDetached([&] {
      MonitorGuard guard(lock);
      cv.Wait();
      ++awake;
    });
  }
  rt.ForkDetached(
      [&] {
        thisthread::Compute(5 * kUsecPerMsec);
        MonitorGuard guard(lock);
        cv.Notify();
      },
      ForkOptions{.priority = 3});
  rt.RunFor(kUsecPerSec);
  EXPECT_EQ(awake, 1);  // exactly-one-waiter-wakens (Section 2)
  rt.Shutdown();
}

TEST(ConditionTest, BroadcastWakesAllWaiters) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  int awake = 0;
  for (int i = 0; i < 5; ++i) {
    rt.ForkDetached([&] {
      MonitorGuard guard(lock);
      cv.Wait();
      ++awake;
    });
  }
  rt.ForkDetached(
      [&] {
        thisthread::Compute(5 * kUsecPerMsec);
        MonitorGuard guard(lock);
        cv.Broadcast();
      },
      ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(awake, 5);
}

TEST(ConditionTest, WaitTimesOutOnQuantumGrid) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", /*timeout=*/10 * kUsecPerMsec);
  Usec woke_at = -1;
  bool notified = true;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    notified = cv.Wait();
    woke_at = rt.now();
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_FALSE(notified);
  // 10 ms timeout rounds up to the 50 ms tick: CV timeout granularity == quantum (Section 2).
  EXPECT_GE(woke_at, 50 * kUsecPerMsec);
  EXPECT_LT(woke_at, 55 * kUsecPerMsec);
}

TEST(ConditionTest, TimeoutCountsAppearInStats) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", 20 * kUsecPerMsec);
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    for (int i = 0; i < 4; ++i) {
      cv.Wait();
    }
  });
  rt.RunUntilQuiescent(5 * kUsecPerSec);
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.cv_waits, 4);
  EXPECT_EQ(s.cv_timeouts, 4);
  EXPECT_DOUBLE_EQ(s.timeout_fraction, 1.0);
}

TEST(ConditionTest, NotifyBeforeTimeoutSuppressesTimeout) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", 500 * kUsecPerMsec);
  bool notified = false;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    notified = cv.Wait();
  });
  rt.ForkDetached([&] {
    thisthread::Compute(5 * kUsecPerMsec);
    MonitorGuard guard(lock);
    cv.Notify();
  });
  rt.RunUntilQuiescent(2 * kUsecPerSec);
  EXPECT_TRUE(notified);
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.cv_timeouts, 0);
}

TEST(ConditionTest, NotifyWithoutLockIsUsageError) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  bool threw = false;
  rt.ForkDetached([&] {
    try {
      cv.Notify();
    } catch (const UsageError&) {
      threw = true;
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(threw);
}

TEST(ConditionTest, NotifyWithoutLockAllowedWhenUnenforced) {
  Config config;
  config.require_lock_for_notify = false;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  bool woke = false;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    cv.Wait();
    woke = true;
  });
  rt.ForkDetached([&] {
    thisthread::Compute(5 * kUsecPerMsec);
    cv.Notify();  // no lock held: tolerated in this configuration
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(woke);
}

TEST(ConditionTest, AwaitRechecksPredicateUnderBroadcast) {
  // "WAIT only in a loop" (Section 5.3): with BROADCAST plus barging, a waiter can win the lock
  // after another thread consumed the state; Await must re-wait.
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  int items = 0;
  int consumed_total = 0;
  for (int i = 0; i < 4; ++i) {
    rt.ForkDetached([&] {
      MonitorGuard guard(lock);
      cv.Await([&] { return items > 0; });
      --items;
      ++consumed_total;
    });
  }
  rt.ForkDetached([&] {
    for (int i = 0; i < 4; ++i) {
      thisthread::Compute(3 * kUsecPerMsec);
      MonitorGuard guard(lock);
      ++items;
      cv.Broadcast();  // wakes everyone; only one can consume each item
    }
  });
  rt.RunUntilQuiescent(5 * kUsecPerSec);
  EXPECT_EQ(consumed_total, 4);
  EXPECT_EQ(items, 0);
}

TEST(ConditionTest, AwaitWithBudgetGivesUp) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", 20 * kUsecPerMsec);
  bool satisfied = true;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    satisfied = cv.Await([] { return false; }, 200 * kUsecPerMsec);
  });
  rt.RunUntilQuiescent(5 * kUsecPerSec);
  EXPECT_FALSE(satisfied);
}

// --- Section 6.1: spurious lock conflicts -----------------------------------------------------

// A low-priority notifier wakes a high-priority waiter while holding the monitor. With naive
// notify (defer_notify_reschedule = false) the waiter preempts, immediately blocks on the
// monitor, and we observe a spurious conflict; the deferred-reschedule fix eliminates it.
int CountSpuriousConflicts(bool defer) {
  Config config;
  config.defer_notify_reschedule = defer;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  rt.ForkDetached(
      [&] {
        MonitorGuard guard(lock);
        cv.Wait();
      },
      ForkOptions{.name = "waiter", .priority = 6});
  rt.ForkDetached(
      [&] {
        thisthread::Compute(5 * kUsecPerMsec);
        MonitorGuard guard(lock);
        cv.Notify();
        thisthread::Compute(2 * kUsecPerMsec);  // still inside the monitor after notifying
      },
      ForkOptions{.name = "notifier", .priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  trace::Summary s = trace::Summarize(rt.tracer());
  return static_cast<int>(s.spurious_conflicts);
}

TEST(SpuriousConflictTest, NaiveNotifyWakesWaiterIntoHeldLock) {
  EXPECT_EQ(CountSpuriousConflicts(/*defer=*/false), 1);
}

TEST(SpuriousConflictTest, DeferredRescheduleEliminatesConflict) {
  EXPECT_EQ(CountSpuriousConflicts(/*defer=*/true), 0);
}

TEST(SpuriousConflictTest, OccursOnMultiprocessorRegardlessOfPriority) {
  // Birrell's original multiprocessor case: notifyee starts on another processor while the
  // notifier still holds the lock (Section 6.1).
  Config config;
  config.processors = 2;
  config.defer_notify_reschedule = false;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    cv.Wait();
  });
  rt.ForkDetached([&] {
    thisthread::Compute(5 * kUsecPerMsec);
    MonitorGuard guard(lock);
    cv.Notify();
    thisthread::Compute(2 * kUsecPerMsec);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  trace::Summary s = trace::Summarize(rt.tracer());
  EXPECT_EQ(s.spurious_conflicts, 1);
}

TEST(ConditionTest, DeferredWakeupsFlushWhenNotifierWaits) {
  // The notifier WAITs (releasing the lock) instead of exiting; deferred wakeups must flush on
  // that release too, or the notified thread would sleep forever.
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition a(lock, "a");
  Condition b(lock, "b");
  std::vector<std::string> order;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    a.Wait();
    order.push_back("first");
    b.Notify();
  });
  rt.ForkDetached([&] {
    thisthread::Compute(2 * kUsecPerMsec);
    MonitorGuard guard(lock);
    a.Notify();
    b.Wait();  // releases the lock; the deferred wakeup of `first` must flush here
    order.push_back("second");
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  EXPECT_TRUE(rt.quiescent_info().all_threads_done);
}

TEST(ConditionTest, StaleTimerAfterNotifyDoesNotRewake) {
  // Thread waits with timeout, gets notified, then waits on something else; the original timer
  // firing later must not wake it spuriously (epoch validation).
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", 60 * kUsecPerMsec);
  Condition never(lock, "never");
  int wakeups = 0;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    bool notified = cv.Wait();
    EXPECT_TRUE(notified);
    ++wakeups;
    never.Wait();  // blocks forever; the stale cv timer must not wake this wait
    ++wakeups;
  });
  rt.ForkDetached([&] {
    thisthread::Compute(2 * kUsecPerMsec);
    MonitorGuard guard(lock);
    cv.Notify();
  });
  rt.RunFor(kUsecPerSec);
  EXPECT_EQ(wakeups, 1);
  rt.Shutdown();
}

// --- Exceptions unwinding out of WAIT ----------------------------------------------------------
//
// A shutdown kill leaving WAIT re-marks the monitor as owned, so the enclosing MonitorGuard's
// Exit stays balanced; any other exception leaves WAIT without ownership, so a live owner keeps
// its lock. A probe declared inside the guard's scope is destroyed after WAIT's frame and before
// the guard, so it sees the ownership WAIT left behind.

struct UnwindProbe {
  MonitorLock& lock;
  int* held_when_unwound;  // stays -1 unless an unwind destroys the probe; then 0 or 1
  ~UnwindProbe() {
    if (std::uncaught_exceptions() > 0) {
      *held_when_unwound = lock.HeldByCurrent() ? 1 : 0;
    }
  }
};

// Injects a thread death into `victim`'s next charge once armed.
class KillAtNextCharge : public FaultInjector {
 public:
  explicit KillAtNextCharge(Scheduler& scheduler) : scheduler_(scheduler) {}
  void Arm(ThreadId victim) { victim_ = victim; }
  uint64_t OnFaultPoint(FaultSite site) override {
    if (site != FaultSite::kThreadDeath || victim_ == kNoThread ||
        scheduler_.current() != victim_) {
      return 0;
    }
    victim_ = kNoThread;
    return 1;
  }

 private:
  Scheduler& scheduler_;
  ThreadId victim_ = kNoThread;
};

TEST(WaitKillTest, ShutdownKillsAWaiterParkedUnderItsGuard) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  int held_when_unwound = -1;
  bool returned = false;
  ThreadId waiter = rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    UnwindProbe probe{lock, &held_when_unwound};
    cv.Wait();
    returned = true;
  });
  rt.RunFor(10 * kUsecPerMsec);
  ASSERT_EQ(rt.scheduler().GetTcb(waiter).block_reason, BlockReason::kCondition);
  rt.Shutdown();
  EXPECT_FALSE(returned);
  EXPECT_EQ(held_when_unwound, 1) << "the kill must leave WAIT owning the monitor again";
  EXPECT_EQ(lock.owner(), kNoThread);
  EXPECT_TRUE(rt.scheduler().GetTcb(waiter).finished);
  EXPECT_EQ(rt.scheduler().uncaught_exits(), 0);
}

TEST(WaitKillTest, ShutdownKillsANotifiedWaiterParkedReenteringTheMonitor) {
  Config config;
  config.defer_notify_reschedule = false;  // the waiter wakes while the notifier holds the lock
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  int held_when_unwound = -1;
  bool returned = false;
  ThreadId waiter = rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    UnwindProbe probe{lock, &held_when_unwound};
    cv.Wait();
    returned = true;
  });
  ThreadId notifier = rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    cv.Notify();
    thisthread::Sleep(kUsecPerSec);  // holds the monitor until shutdown
  });
  rt.RunFor(10 * kUsecPerMsec);
  ASSERT_EQ(rt.scheduler().GetTcb(waiter).block_reason, BlockReason::kMonitor);
  ASSERT_EQ(lock.owner(), notifier);
  rt.Shutdown();
  EXPECT_FALSE(returned);
  EXPECT_EQ(held_when_unwound, 1) << "the kill must leave WAIT owning the monitor again";
  EXPECT_EQ(lock.owner(), kNoThread);
  EXPECT_TRUE(rt.scheduler().GetTcb(waiter).finished);
  EXPECT_TRUE(rt.scheduler().GetTcb(notifier).finished);
  EXPECT_EQ(rt.scheduler().uncaught_exits(), 0);
}

TEST(WaitKillTest, InjectedDeathInsideWaitLeavesTheLockToItsLiveOwner) {
  Config config;
  config.defer_notify_reschedule = false;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  KillAtNextCharge killer(rt.scheduler());
  rt.scheduler().set_fault_injector(&killer);
  int held_when_unwound = -1;
  bool returned = false;
  ThreadId waiter = rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    UnwindProbe probe{lock, &held_when_unwound};
    cv.Wait();
    returned = true;
  });
  ThreadId notifier = rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    cv.Notify();
    killer.Arm(waiter);  // the waiter's next charge is its re-entry into the monitor
    thisthread::Sleep(kUsecPerSec);
  });
  rt.RunFor(10 * kUsecPerMsec);
  EXPECT_FALSE(returned);
  EXPECT_EQ(held_when_unwound, 0) << "an injected death must leave WAIT without ownership";
  EXPECT_EQ(lock.owner(), notifier);
  EXPECT_FALSE(lock.poisoned());
  EXPECT_TRUE(rt.scheduler().GetTcb(waiter).finished);
  EXPECT_EQ(rt.scheduler().uncaught_exits(), 1);
  rt.Shutdown();
  rt.scheduler().set_fault_injector(nullptr);
  EXPECT_EQ(lock.owner(), kNoThread);
  EXPECT_TRUE(rt.scheduler().GetTcb(notifier).finished);
}

// --- Shutdown kills each thread by its own exceptions -----------------------------------------
//
// std::uncaught_exceptions() counts every fiber of an OS thread together, so a thread parked
// mid-unwind, or a host frame unwinding into ~Runtime, raises it for every thread. Shutdown must
// still kill each thread that is not itself unwinding, and let one that is finish its unwind: a
// second throw there would terminate the process.

// Forces a preempt at every monitor exit, so a thread unwinding out of a MonitorGuard parks
// inside its destructor (Section 5.3's barging window).
class PreemptAtMonitorExit : public SchedulePerturber {
 public:
  bool ForcePreempt(PreemptPoint point, ThreadId /*current*/) override {
    return point == PreemptPoint::kMonitorExit;
  }
  size_t PickNext(const ThreadId* /*candidates*/, size_t /*count*/) override { return 0; }
};

// Charges `step` per iteration and counts in `*in_shutdown` the iterations that begin after
// shutdown has begun. A thread Shutdown fails to kill runs on in its body, where Compute returns
// at once; the bound turns that into a count instead of a hang.
std::function<void()> Spinner(Scheduler& scheduler, Usec step, int* in_shutdown) {
  return [&scheduler, step, in_shutdown] {
    for (int i = 0; i < 10'000; ++i) {
      if (scheduler.shutting_down()) {
        ++*in_shutdown;
      }
      scheduler.Compute(step);
    }
  };
}

void ThrowInsideGuard(MonitorLock& lock) {
  MonitorGuard guard(lock);
  throw std::runtime_error("boom");
}

TEST(ShutdownKillTest, AThreadParkedMidUnwindFinishesItsUnwind) {
  PreemptAtMonitorExit perturber;
  int spins_in_shutdown = 0;
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  rt.scheduler().set_perturber(&perturber);
  ThreadId thrower = rt.Fork([&] { ThrowInsideGuard(lock); });
  ThreadId spinner = rt.Fork(Spinner(rt.scheduler(), 1000, &spins_in_shutdown));
  rt.RunFor(10 * kUsecPerMsec);
  EXPECT_FALSE(rt.scheduler().GetTcb(thrower).finished) << "the thrower must park mid-unwind";
  rt.Shutdown();
  EXPECT_TRUE(rt.scheduler().GetTcb(thrower).finished);
  EXPECT_EQ(rt.scheduler().uncaught_exits(), 1) << "the thrower's own exception must end it";
  EXPECT_TRUE(rt.scheduler().GetTcb(spinner).finished);
  EXPECT_EQ(spins_in_shutdown, 0);
  EXPECT_EQ(lock.owner(), kNoThread);
  EXPECT_FALSE(lock.poisoned());
}

// Sleeps as its scope unwinds: on an unwind that Shutdown lets finish, a destructor that blocks.
struct SleepOnUnwind {
  Scheduler& scheduler;
  ~SleepOnUnwind() noexcept(false) { scheduler.Sleep(kUsecPerMsec); }
};

// A thread finishing its own unwind during shutdown returns at once from a blocking call
// instead of being killed again. The spinner keeps the thrower parked mid-unwind until shutdown.
TEST(ShutdownKillTest, AThreadFinishingItsUnwindReturnsFromABlockingCall) {
  PreemptAtMonitorExit perturber;
  int spins_in_shutdown = 0;
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  rt.scheduler().set_perturber(&perturber);
  ThreadId thrower = rt.Fork([&] {
    SleepOnUnwind outer{rt.scheduler()};
    ThrowInsideGuard(lock);
  });
  ThreadId spinner = rt.Fork(Spinner(rt.scheduler(), 1000, &spins_in_shutdown));
  rt.RunFor(10 * kUsecPerMsec);
  EXPECT_FALSE(rt.scheduler().GetTcb(thrower).finished) << "the thrower must park mid-unwind";
  rt.Shutdown();
  EXPECT_TRUE(rt.scheduler().GetTcb(thrower).finished);
  EXPECT_EQ(rt.scheduler().uncaught_exits(), 1) << "the thrower's own exception must end it";
  EXPECT_TRUE(rt.scheduler().GetTcb(spinner).finished);
  EXPECT_EQ(spins_in_shutdown, 0);
  EXPECT_EQ(lock.owner(), kNoThread);
}

TEST(ShutdownKillTest, KillsASpinnerWhileAnotherThreadIsParkedMidUnwind) {
  PreemptAtMonitorExit perturber;
  int spins_in_shutdown = 0;
  Config config;
  config.quantum = kUsecPerMsec;  // the spinner yields the processor to the thrower at 1 ms
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  rt.scheduler().set_perturber(&perturber);
  ThreadId spinner = rt.Fork(Spinner(rt.scheduler(), 100, &spins_in_shutdown));
  ThreadId thrower = rt.Fork([&] { ThrowInsideGuard(lock); });
  rt.RunFor(1500);
  EXPECT_FALSE(rt.scheduler().GetTcb(thrower).finished) << "the thrower must park mid-unwind";
  rt.Shutdown();
  EXPECT_EQ(spins_in_shutdown, 0) << "the spinner ran its body during shutdown";
  EXPECT_TRUE(rt.scheduler().GetTcb(spinner).finished);
  EXPECT_TRUE(rt.scheduler().GetTcb(thrower).finished);
  EXPECT_EQ(rt.scheduler().uncaught_exits(), 1);
}

TEST(ShutdownKillTest, KillsASpinnerWhenShutdownRunsDuringAHostUnwind) {
  int spins_in_shutdown = 0;
  try {
    Runtime rt;
    rt.Fork(Spinner(rt.scheduler(), 1000, &spins_in_shutdown));
    rt.RunFor(10 * kUsecPerMsec);
    throw std::runtime_error("host");  // ~Runtime shuts the spinner down during this unwind
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(spins_in_shutdown, 0) << "the spinner ran its body during shutdown";
}

// The host runs the simulation on while it unwinds, as the explorer drains a run that paused
// with an exception in flight. The spinner parks during that run; the host's exception is not
// its own.
TEST(ShutdownKillTest, KillsASpinnerThatParkedWhileTheHostWasUnwinding) {
  struct RunOnUnwind {
    Runtime& rt;
    ~RunOnUnwind() {
      rt.RunFor(10 * kUsecPerMsec);
      rt.Shutdown();
    }
  };
  int spins_in_shutdown = 0;
  try {
    Runtime rt;
    rt.Fork(Spinner(rt.scheduler(), 1000, &spins_in_shutdown));
    RunOnUnwind run{rt};
    throw std::runtime_error("host");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(spins_in_shutdown, 0) << "the spinner ran its body during shutdown";
}

}  // namespace
}  // namespace pcr
