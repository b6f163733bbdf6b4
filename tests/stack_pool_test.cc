// StackPool unit tests plus its integration contracts: the scheduler's FORK path must reuse
// stacks, an external pool must survive its Runtime, and — the load-bearing one — pooling must
// not perturb explorer determinism at any worker count.

#include "src/pcr/stack.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "src/explore/explorer.h"
#include "src/pcr/runtime.h"

namespace pcr {
namespace {

size_t Page() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

TEST(StackPoolTest, FirstAcquireIsAMiss) {
  StackPool pool;
  bool from_pool = true;
  FiberStack stack = pool.Acquire(64 * 1024, &from_pool);
  EXPECT_FALSE(from_pool);
  EXPECT_GE(stack.size(), 64u * 1024u);
  EXPECT_EQ(pool.stats().acquires, 1u);
  EXPECT_EQ(pool.stats().pool_hits, 0u);
}

TEST(StackPoolTest, ReleaseThenAcquireReusesTheMapping) {
  StackPool pool;
  FiberStack first = pool.Acquire(64 * 1024);
  void* base = first.base();
  pool.Release(std::move(first));
  EXPECT_EQ(pool.pooled_stacks(), 1u);

  bool from_pool = false;
  FiberStack second = pool.Acquire(64 * 1024, &from_pool);
  EXPECT_TRUE(from_pool);
  EXPECT_EQ(second.base(), base);
  EXPECT_EQ(pool.pooled_stacks(), 0u);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
}

TEST(StackPoolTest, RecycledStackIsWritable) {
  // A parked stack keeps its mapping and pages: the recycled one must still be writable.
  StackPool pool;
  {
    FiberStack stack = pool.Acquire(16 * 1024);
    static_cast<char*>(stack.base())[0] = 42;
    pool.Release(std::move(stack));
  }
  FiberStack again = pool.Acquire(16 * 1024);
  char* bytes = static_cast<char*>(again.base());
  bytes[0] = 7;
  bytes[again.size() - 1] = 9;
  EXPECT_EQ(bytes[0], 7);
  EXPECT_EQ(bytes[again.size() - 1], 9);
}

TEST(StackPoolTest, SizeClassesDoNotCrossServe) {
  StackPool pool;
  FiberStack big = pool.Acquire(64 * 1024);
  pool.Release(std::move(big));

  bool from_pool = true;
  FiberStack small = pool.Acquire(4 * 1024, &from_pool);
  EXPECT_FALSE(from_pool) << "a 64k stack must not serve a 4k request";

  FiberStack big_again = pool.Acquire(64 * 1024, &from_pool);
  EXPECT_TRUE(from_pool);
}

TEST(StackPoolTest, RequestsRoundUpToTheSameClass) {
  StackPool pool;
  FiberStack odd = pool.Acquire(Page() + 1);
  pool.Release(std::move(odd));
  // Page()+1 and 2*Page() round to the same class, so the second acquire hits.
  bool from_pool = false;
  FiberStack rounded = pool.Acquire(2 * Page(), &from_pool);
  EXPECT_TRUE(from_pool);
}

TEST(StackPoolTest, CapacityCapDropsInsteadOfPooling) {
  StackPool pool(/*max_pooled_bytes=*/1);
  FiberStack stack = pool.Acquire(16 * 1024);
  pool.Release(std::move(stack));
  EXPECT_EQ(pool.pooled_stacks(), 0u);
  EXPECT_EQ(pool.stats().drops, 1u);
  EXPECT_EQ(pool.stats().pooled_bytes, 0u);
}

TEST(StackPoolTest, TracksLiveAndPooledHighWater) {
  StackPool pool;
  FiberStack a = pool.Acquire(32 * 1024);
  FiberStack b = pool.Acquire(32 * 1024);
  size_t both = a.reserved_bytes() + b.reserved_bytes();
  EXPECT_EQ(pool.stats().live_bytes, both);
  EXPECT_EQ(pool.stats().peak_live_bytes, both);

  pool.Release(std::move(a));
  pool.Release(std::move(b));
  EXPECT_EQ(pool.stats().live_bytes, 0u);
  EXPECT_EQ(pool.stats().peak_live_bytes, both);
  EXPECT_EQ(pool.stats().pooled_bytes, both);
  EXPECT_EQ(pool.stats().peak_pooled_bytes, both);

  // Re-acquiring one moves bytes back from pooled to live but cannot move the peaks.
  FiberStack c = pool.Acquire(32 * 1024);
  EXPECT_EQ(pool.stats().pooled_bytes, both - c.reserved_bytes());
  EXPECT_EQ(pool.stats().peak_live_bytes, both);
}

TEST(StackPoolTest, ClearUnmapsParkedStacks) {
  StackPool pool;
  pool.Release(pool.Acquire(16 * 1024));
  pool.Release(pool.Acquire(64 * 1024));
  EXPECT_EQ(pool.pooled_stacks(), 2u);
  pool.Clear();
  EXPECT_EQ(pool.pooled_stacks(), 0u);
  EXPECT_EQ(pool.stats().pooled_bytes, 0u);
}

TEST(StackPoolSchedulerTest, ForkReusesStacksAcrossGenerations) {
  Runtime rt;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      rt.ForkDetached([] { thisthread::Compute(10); });
    }
    rt.RunUntilQuiescent(kUsecPerSec);
  }
  rt.Shutdown();
  // 12 dispatched threads, but after round one every fork finds a parked stack.
  EXPECT_EQ(rt.scheduler().host_counts().stack_acquires, 12);
  EXPECT_GE(rt.scheduler().host_counts().stack_pool_hits, 8);
  EXPECT_EQ(rt.scheduler().stack_pool().stats().live_bytes, 0u);
}

TEST(StackPoolSchedulerTest, ExternalPoolCarriesStacksAcrossRuntimes) {
  StackPool pool;
  for (int round = 0; round < 2; ++round) {
    Config config;
    config.stack_pool = &pool;
    Runtime rt(config);
    rt.ForkDetached([] { thisthread::Compute(10); });
    rt.RunUntilQuiescent(kUsecPerSec);
    rt.Shutdown();
  }
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
}

// The explorer's contract: byte-identical results at any worker count. Worker arenas recycle
// stacks and trace buffers, and which schedule lands on which (warm or cold) arena is timing-
// dependent — so this test fails if any recycled state is observable.
TEST(StackPoolExploreTest, PooledArenasPreserveWorkerCountDeterminism) {
  explore::TestBody body = [](Runtime& rt, explore::TestContext& ctx) {
    for (int i = 0; i < 6; ++i) {
      rt.ForkDetached([] {
        thisthread::Compute(5);
        thisthread::Yield();
        thisthread::Compute(5);
      });
    }
    rt.RunUntilQuiescent(kUsecPerSec);
    ctx.Check(true, "ran");
  };

  auto run = [&body](int workers) {
    explore::ExploreOptions options;
    options.scenario_name = "pool-determinism";
    options.budget = 40;
    options.workers = workers;
    explore::Explorer ex(options);
    return ex.Explore(body);
  };

  explore::ExploreResult serial = run(1);
  explore::ExploreResult parallel = run(4);

  EXPECT_EQ(serial.schedules_run, parallel.schedules_run);
  EXPECT_EQ(serial.distinct_schedules, parallel.distinct_schedules);
  EXPECT_EQ(serial.baseline.trace_hash, parallel.baseline.trace_hash);
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].trace_hash, parallel.failures[i].trace_hash);
    EXPECT_EQ(serial.failures[i].repro, parallel.failures[i].repro);
    EXPECT_EQ(serial.failures[i].failures, parallel.failures[i].failures);
  }
  // The fork-heavy body plus warm arenas means most schedules after the first reuse stacks.
  EXPECT_GT(serial.profile.stack_pool_hits, 0);
  EXPECT_GT(serial.profile.fiber_switches, 0);
}

}  // namespace
}  // namespace pcr
