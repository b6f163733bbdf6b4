// The FIFO behind every wait queue (pcr::WaitQueue): monitor entry, CV, interrupt and
// FORK-resource waits. Entries leave in arrival order; a stale entry (its thread was woken by
// something else since) stays queued until a pop skips it; a queue never pushed to owns no heap
// block; a queue that never drains reuses its consumed prefix instead of growing; and a
// non-empty queue comes back whole from a checkpoint restore.

#include <gtest/gtest.h>

#include <string>

#include "src/explore/hash.h"
#include "src/pcr/checkpoint.h"
#include "src/pcr/condition.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"

namespace pcr {
namespace {

TEST(WaitQueueTest, EntriesLeaveInArrivalOrder) {
  WaitQueue queue;
  EXPECT_TRUE(queue.empty());
  std::string order;
  ThreadId next = 1;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      queue.push_back(WaitEntry{next++, 0});
    }
    for (int i = 0; i < 2; ++i) {
      order += std::to_string(queue.front().tid) + ' ';
      queue.pop_front();
    }
  }
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(order, "1 2 3 4 5 6 ");
  ThreadId expected = 7;
  for (const WaitEntry& entry : queue) {
    EXPECT_EQ(entry.tid, expected++);
  }
}

TEST(WaitQueueTest, ConditionWakesWaitersInArrivalOrder) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  std::string woken;
  for (int i = 1; i <= 3; ++i) {
    rt.ForkDetached([&, i] {
      MonitorGuard guard(lock);
      cv.Wait();
      woken += std::to_string(i);
    });
  }
  rt.RunUntilQuiescent(kUsecPerSec);
  ASSERT_EQ(cv.waiters().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    cv.Notify();  // host context: wakes one waiter directly
    rt.RunUntilQuiescent(kUsecPerSec);
  }
  EXPECT_EQ(woken, "123");
}

TEST(WaitQueueTest, NotifySkipsTheEntryATimeoutLeftBehind) {
  // Thread 1's WAIT times out at the 1 ms tick; its entry stays queued, stale, while thread 1
  // sleeps (blocked again, under a newer epoch). Thread 2 queues behind it, and thread 3's
  // NOTIFY must skip the stale entry, wake thread 2, and leave thread 1's sleep alone.
  Config config;
  config.quantum = kUsecPerMsec;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv", kUsecPerMsec);
  bool first_notified = true;
  Usec first_slept_until = 0;
  bool second_notified = false;
  size_t queued_before_notify = 0;
  rt.ForkDetached(
      [&] {
        {
          MonitorGuard guard(lock);
          first_notified = cv.Wait();
        }
        thisthread::Sleep(5 * kUsecPerMsec);
        first_slept_until = thisthread::Now();
      },
      ForkOptions{.priority = 4});
  rt.ForkDetached(
      [&] {
        thisthread::Sleep(2 * kUsecPerMsec);
        MonitorGuard guard(lock);
        second_notified = cv.Wait();
      },
      ForkOptions{.priority = 3});
  rt.ForkDetached(
      [&] {
        thisthread::Sleep(2 * kUsecPerMsec);
        MonitorGuard guard(lock);
        queued_before_notify = cv.waiters().size();
        cv.Notify();
      },
      ForkOptions{.priority = 2});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_FALSE(first_notified);
  EXPECT_EQ(queued_before_notify, 2u);  // the stale entry and thread 2's
  EXPECT_TRUE(second_notified);
  EXPECT_EQ(cv.waiters().size(), 0u);
  EXPECT_GE(first_slept_until, 6 * kUsecPerMsec);  // not cut short by the skipped entry
}

TEST(WaitQueueTest, MonitorsAndConditionsWithoutWaitersHoldNoHeapBlock) {
  Runtime rt;
  MonitorLock quiet(rt.scheduler(), "quiet");
  Condition unwaited(quiet, "unwaited");
  MonitorLock fought(rt.scheduler(), "fought");
  rt.ForkDetached([&] {
    for (int i = 0; i < 100; ++i) {
      MonitorGuard guard(quiet);
      unwaited.Notify();
    }
  });
  rt.ForkDetached([&] {
    MonitorGuard guard(fought);
    thisthread::Sleep(kUsecPerMsec);
  });
  rt.ForkDetached([&] { MonitorGuard guard(fought); });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(quiet.entry_waiters().capacity(), 0u);
  EXPECT_EQ(unwaited.waiters().capacity(), 0u);
  EXPECT_TRUE(fought.entry_waiters().empty());
  EXPECT_GT(fought.entry_waiters().capacity(), 0u);  // a waiter came and went
}

TEST(WaitQueueTest, AQueueThatNeverDrainsKeepsItsCapacityBounded) {
  WaitQueue queue;
  ThreadId pushed = 0;
  ThreadId popped = 0;
  for (int i = 0; i < 3; ++i) {
    queue.push_back(WaitEntry{++pushed, 0});
  }
  for (int i = 0; i < 100'000; ++i) {
    queue.push_back(WaitEntry{++pushed, 0});
    ASSERT_EQ(queue.front().tid, ++popped);
    queue.pop_front();
  }
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_LE(queue.capacity(), 16u);  // under four times the largest backlog (4)
}

// Thread 1 waits on the CV; thread 2 holds the monitor through a sleep; threads 3 and 4 queue
// to enter it. The snapshot sees both queues non-empty.
uint64_t QueuedRun(bool checkpoint) {
  Runtime rt;
  MonitorLock lock(rt.scheduler(), "held");
  Condition cv(lock, "cv");
  rt.ForkDetached(
      [&] {
        MonitorGuard guard(lock);
        cv.Wait();
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached(
      [&] {
        MonitorGuard guard(lock);
        thisthread::Sleep(5 * kUsecPerMsec);
        cv.Notify();
      },
      ForkOptions{.priority = 4});
  for (int i = 0; i < 2; ++i) {
    rt.ForkDetached([&] { MonitorGuard guard(lock); }, ForkOptions{.priority = 3});
  }
  rt.RunFor(kUsecPerMsec);
  EXPECT_EQ(lock.entry_waiters().size(), 2u);
  EXPECT_EQ(cv.waiters().size(), 1u);
  if (!checkpoint) {
    rt.RunUntilQuiescent(kUsecPerSec);
    return explore::TraceHash(rt.tracer());
  }
  Checkpoint snapshot(rt.scheduler(), rt.tracer(), nullptr);
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(lock.entry_waiters().empty());
  EXPECT_EQ(cv.waiters().size(), 0u);
  const uint64_t first = explore::TraceHash(rt.tracer());
  snapshot.Restore();
  EXPECT_EQ(lock.entry_waiters().size(), 2u);
  EXPECT_EQ(lock.entry_waiters().front().tid, 3u);
  EXPECT_EQ(cv.waiters().size(), 1u);
  EXPECT_EQ(cv.waiters().front().tid, 1u);
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(explore::TraceHash(rt.tracer()), first);
  return first;
}

TEST(WaitQueueTest, NonEmptyQueuesSurviveCheckpointAndRestore) {
  const uint64_t from_zero = QueuedRun(/*checkpoint=*/false);
  if (!Checkpoint::Supported()) {
    GTEST_SKIP() << "checkpointing is unsupported in this build";
  }
  EXPECT_EQ(QueuedRun(/*checkpoint=*/true), from_zero);
}

}  // namespace
}  // namespace pcr
