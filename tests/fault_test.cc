// Deterministic fault injection (src/fault/) and the runtime watchdog: fork-failure policies,
// lost notifies (watchdog-detected vs timeout-masked), monitor poisoning after thread death,
// wait-for-cycle deadlock reports, X-connection drops with backoff reconnect, and the
// fault-plan field of repro strings.

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/explore/explorer.h"
#include "src/explore/hash.h"
#include "src/explore/repro.h"
#include "src/fault/fault.h"
#include "src/fault/watchdog.h"
#include "src/pcr/condition.h"
#include "src/pcr/errors.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/pcr/stack.h"
#include "src/world/cedar_world.h"
#include "src/world/service_world.h"
#include "src/world/xclient.h"
#include "src/world/xserver.h"

namespace {

using pcr::Config;
using pcr::Condition;
using pcr::FaultSite;
using pcr::ForkError;
using pcr::ForkOnFailure;
using pcr::ForkOptions;
using pcr::ForkResult;
using pcr::kUsecPerMsec;
using pcr::kUsecPerSec;
using pcr::MonitorGuard;
using pcr::MonitorLock;
using pcr::Runtime;
using pcr::RunStatus;
using pcr::Usec;

// ---------------------------------------------------------------------------
// Plan codec
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, EncodeDecodeRoundTrips) {
  fault::Plan plan;
  plan.seed = 42;
  plan.rate = 0.015625;
  plan.value = 3;
  plan.site_mask = fault::SiteBit(FaultSite::kNotifyLost) | fault::SiteBit(FaultSite::kXDrop);
  plan.script.push_back({FaultSite::kFork, 2, 1});
  plan.script.push_back({FaultSite::kTimerSkew, 0, 7});

  fault::Plan decoded = fault::Plan::Decode(plan.Encode());
  EXPECT_EQ(decoded, plan);

  EXPECT_FALSE(fault::Plan::Decode("").enabled());
  EXPECT_FALSE(fault::Plan::Decode("f1").enabled());
}

TEST(FaultPlanTest, DecodeRejectsMalformedInput) {
  EXPECT_THROW(fault::Plan::Decode("f2,rate=0.5"), pcr::UsageError);
  EXPECT_THROW(fault::Plan::Decode("f1,rate=1.5,sites=fork"), pcr::UsageError);
  EXPECT_THROW(fault::Plan::Decode("f1,sites=warp-core"), pcr::UsageError);
  EXPECT_THROW(fault::Plan::Decode("f1,bogus=1"), pcr::UsageError);
  EXPECT_THROW(fault::Plan::Decode("f1,fork@"), pcr::UsageError);
}

TEST(FaultPlanTest, ScriptedEntryFiresAtExactConsultIndex) {
  fault::Plan plan;
  plan.script.push_back({FaultSite::kFork, 2, 5});
  fault::Injector injector(plan);

  EXPECT_EQ(injector.OnFaultPoint(FaultSite::kFork), 0u);
  EXPECT_EQ(injector.OnFaultPoint(FaultSite::kFork), 0u);
  EXPECT_EQ(injector.OnFaultPoint(FaultSite::kFork), 5u);  // the third consult (index 2)
  EXPECT_EQ(injector.OnFaultPoint(FaultSite::kFork), 0u);
  ASSERT_EQ(injector.fired().size(), 1u);
  EXPECT_EQ(injector.fired()[0], (fault::ScriptedFault{FaultSite::kFork, 2, 5}));
  EXPECT_EQ(injector.consults(FaultSite::kFork), 4u);
}

TEST(FaultPlanTest, ProbabilisticFiringIsSeedDeterministic) {
  fault::Plan plan;
  plan.seed = 9;
  plan.rate = 0.25;
  plan.site_mask = fault::SiteBit(FaultSite::kNotifyLost);
  fault::Injector injector(plan);

  std::vector<uint64_t> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(injector.OnFaultPoint(FaultSite::kNotifyLost));
  }
  injector.Reset();
  std::vector<uint64_t> second;
  for (int i = 0; i < 64; ++i) {
    second.push_back(injector.OnFaultPoint(FaultSite::kNotifyLost));
  }
  EXPECT_EQ(first, second);
  EXPECT_FALSE(injector.fired().empty()) << "rate 0.25 over 64 consults should fire";
}

TEST(FaultPlanTest, UnarmedSiteConsultsDoNotShiftArmedDraws) {
  // The RNG steps only on armed-site consults, so interleaving consults at an unarmed site
  // must not change which armed consults fire — the invariant scripted minimization rests on.
  fault::Plan plan;
  plan.seed = 9;
  plan.rate = 0.25;
  plan.site_mask = fault::SiteBit(FaultSite::kNotifyLost);

  fault::Injector a(plan);
  std::vector<uint64_t> plain;
  for (int i = 0; i < 32; ++i) {
    plain.push_back(a.OnFaultPoint(FaultSite::kNotifyLost));
  }

  fault::Injector b(plan);
  std::vector<uint64_t> interleaved;
  for (int i = 0; i < 32; ++i) {
    b.OnFaultPoint(FaultSite::kFork);  // unarmed: counted, but no RNG step
    interleaved.push_back(b.OnFaultPoint(FaultSite::kNotifyLost));
  }
  EXPECT_EQ(plain, interleaved);
}

// ---------------------------------------------------------------------------
// Fork failure policies (satellite: StackPool no longer aborts blindly)
// ---------------------------------------------------------------------------

TEST(ForkFailureTest, ReturnErrorPolicySurfacesInjectedFailure) {
  fault::Plan plan;
  plan.script.push_back({FaultSite::kFork, 0, 1});
  fault::Injector injector(plan);

  Runtime rt;
  rt.scheduler().set_fault_injector(&injector);
  ForkOptions options;
  options.on_failure = ForkOnFailure::kReturnError;
  ForkResult failed = rt.TryFork([] {}, options);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.error, ForkError::kInjected);
  EXPECT_EQ(failed.tid, pcr::kNoThread);

  ForkResult second = rt.TryFork([] {}, options);  // consult index 1: no script entry
  EXPECT_TRUE(second.ok());
  rt.Detach(second.tid);
  rt.RunUntilQuiescent(kUsecPerSec);
}

TEST(ForkFailureTest, RetryBackoffPolicyRecoversAfterTransientFailure) {
  fault::Plan plan;
  plan.script.push_back({FaultSite::kFork, 0, 1});
  plan.script.push_back({FaultSite::kFork, 1, 1});
  fault::Injector injector(plan);

  Runtime rt;
  ForkResult result;
  Usec started = 0;
  Usec finished = 0;
  rt.ForkDetached([&] {
    started = pcr::thisthread::Now();
    ForkOptions options;
    options.on_failure = ForkOnFailure::kRetryBackoff;
    options.max_retries = 3;
    result = rt.TryFork([] {}, options);
    finished = pcr::thisthread::Now();
    if (result.ok()) {
      rt.Detach(result.tid);
    }
  });
  // Installed after the outer fork so the script's consult indices count only the TryFork
  // attempts under test.
  rt.scheduler().set_fault_injector(&injector);
  EXPECT_EQ(rt.RunUntilQuiescent(10 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.retries, 2);
  // Two backoff sleeps (1 then 2 quanta by default) separate attempt 0 from attempt 2.
  EXPECT_GE(finished - started, 3 * rt.config().quantum);
}

TEST(ForkFailureTest, RetryBackoffGivesUpAfterMaxRetries) {
  fault::Plan plan;
  plan.rate = 1.0;  // every fork consult fails
  plan.site_mask = fault::SiteBit(FaultSite::kFork);
  fault::Injector injector(plan);

  Runtime rt;
  ForkResult result;
  rt.ForkDetached([&] {
    ForkOptions options;
    options.on_failure = ForkOnFailure::kRetryBackoff;
    options.max_retries = 2;
    result = rt.TryFork([] {}, options);
  });
  rt.scheduler().set_fault_injector(&injector);
  EXPECT_EQ(rt.RunUntilQuiescent(10 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, ForkError::kInjected);
  EXPECT_EQ(result.retries, 2);
}

TEST(ForkFailureTest, ThreadLimitSurfacesAsReturnError) {
  Config config;
  config.max_threads = 2;
  Runtime rt(config);
  ForkOptions options;
  options.on_failure = ForkOnFailure::kReturnError;
  ForkResult a = rt.TryFork([] { pcr::thisthread::Sleep(kUsecPerMsec); }, options);
  ForkResult b = rt.TryFork([] { pcr::thisthread::Sleep(kUsecPerMsec); }, options);
  ForkResult c = rt.TryFork([] {}, options);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.error, ForkError::kThreadLimit);
  rt.Detach(a.tid);
  rt.Detach(b.tid);
  rt.RunUntilQuiescent(kUsecPerSec);
}

TEST(StackPoolTest, TryAcquireFailsUnderCapacityPressureWithoutAborting) {
  pcr::StackPool pool;
  size_t usable = 64 * 1024;
  pool.set_max_live_bytes(pcr::FiberStack::ReservedSize(usable));

  pcr::FiberStack first;
  std::string error;
  ASSERT_TRUE(pool.TryAcquire(usable, &first, nullptr, &error)) << error;
  EXPECT_TRUE(pool.HasCapacity(usable) == false);

  pcr::FiberStack second;
  EXPECT_FALSE(pool.TryAcquire(usable, &second, nullptr, &error));
  EXPECT_FALSE(error.empty());

  pool.Release(std::move(first));
  EXPECT_TRUE(pool.HasCapacity(usable));
  ASSERT_TRUE(pool.TryAcquire(usable, &second, nullptr, &error));
  pool.Release(std::move(second));
}

TEST(StackExhaustionTest, ForkReportsStackExhaustedWhenPoolIsFull) {
  pcr::StackPool pool;
  pool.set_max_live_bytes(1);  // nothing fits
  Config config;
  config.stack_pool = &pool;
  Runtime rt(config);
  ForkOptions options;
  options.on_failure = ForkOnFailure::kReturnError;
  ForkResult result = rt.TryFork([] {}, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, ForkError::kStackExhausted);
}

// ---------------------------------------------------------------------------
// Thread death and monitor poisoning (satellite: uncaught exceptions are reported)
// ---------------------------------------------------------------------------

TEST(ThreadDeathTest, InjectedDeathPoisonsHeldMonitor) {
  fault::Plan plan;
  // Consult 0 is the cost charge inside Enter itself (before ownership registers); consult 1 is
  // the explicit Compute below, where the victim already holds the lock.
  plan.script.push_back({FaultSite::kThreadDeath, 1, 1});
  fault::Injector injector(plan);

  Runtime rt;
  rt.scheduler().set_fault_injector(&injector);
  MonitorLock lock(rt.scheduler(), "shared-module");
  bool victim_finished = false;
  bool entrant_saw_poison = false;
  rt.ForkDetached([&] {
    // Deliberately no RAII guard: a guard would release the lock during unwind, and the point
    // here is what happens when a dying thread abandons a monitor it still holds.
    lock.Enter();
    pcr::thisthread::Compute(kUsecPerMsec);  // kThreadDeath consult 1: dies holding the lock
    victim_finished = true;
    lock.Exit();
  });
  rt.ForkDetached([&] {
    pcr::thisthread::Sleep(10 * kUsecPerMsec);
    try {
      MonitorGuard guard(lock);
    } catch (const pcr::MonitorPoisoned& e) {
      entrant_saw_poison = true;
      EXPECT_NE(std::string(e.what()).find("shared-module"), std::string::npos);
    }
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_FALSE(victim_finished);
  EXPECT_TRUE(entrant_saw_poison);
  EXPECT_TRUE(lock.poisoned());
  EXPECT_EQ(rt.scheduler().uncaught_exits(), 1);
}

TEST(ThreadDeathTest, PoisoningOrderDoesNotDependOnLockAddresses) {
  // A dying thread's abandoned monitors are poisoned most recently acquired first. The order,
  // and with it the trace, must not change when the locks move in memory: A and B are
  // placement-constructed at 64 offsets 8 bytes apart, next to a bystander's unrelated lock.
  constexpr size_t kOffsets = 64;
  alignas(MonitorLock) unsigned char storage[(kOffsets - 1) * 8 + 2 * sizeof(MonitorLock)];
  uint64_t first_hash = 0;
  for (size_t offset = 0; offset < kOffsets * 8; offset += 8) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    Runtime rt;
    MonitorLock unrelated(rt.scheduler(), "unrelated");
    auto* a = new (storage + offset) MonitorLock(rt.scheduler(), "A");
    auto* b = new (storage + offset + sizeof(MonitorLock)) MonitorLock(rt.scheduler(), "B");
    int poisoned_entrants = 0;
    rt.Fork([&] {  // bystander: holds the unrelated monitor across the death
      MonitorGuard guard(unrelated);
      pcr::thisthread::Sleep(200 * kUsecPerMsec);
    });
    rt.Fork([&] {  // victim: no guards, so it dies holding both
      a->Enter();
      b->Enter();
      pcr::thisthread::Sleep(100 * kUsecPerMsec);
      throw std::runtime_error("victim dies holding A and B");
    });
    for (MonitorLock* lock : {a, b}) {
      rt.Fork([&, lock] {  // one queued entrant per lock
        try {
          MonitorGuard guard(*lock);
        } catch (const pcr::MonitorPoisoned&) {
          ++poisoned_entrants;
        }
      });
    }
    EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
    EXPECT_EQ(poisoned_entrants, 2);
    std::vector<pcr::ObjectId> order;
    for (const trace::Event& e : rt.tracer().view()) {
      if (e.type == trace::EventType::kMonitorPoisoned) {
        order.push_back(e.object);
      }
    }
    EXPECT_EQ(order, (std::vector<pcr::ObjectId>{b->id(), a->id()}));  // same ids every offset
    const uint64_t hash = explore::TraceHash(rt.tracer());
    if (offset == 0) {
      first_hash = hash;
    }
    EXPECT_EQ(hash, first_hash);
    b->~MonitorLock();
    a->~MonitorLock();
  }
}

TEST(ThreadDeathTest, FatalUncaughtAbortsWithThreadAndMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Config config;
        config.fatal_uncaught = true;
        Runtime rt(config);
        rt.ForkDetached([] { throw std::runtime_error("boom in fiber"); },
                        ForkOptions{.name = "doomed"});
        rt.RunUntilQuiescent(kUsecPerSec);
      },
      "died of uncaught exception.*boom in fiber");
}

// ---------------------------------------------------------------------------
// Lost notifies and the watchdog
// ---------------------------------------------------------------------------

TEST(WatchdogTest, TimeoutMaskedLostNotifyIsDetected) {
  // The consumer's CV has a timeout, so an injected lost notify does not hang the program —
  // the Section 5.3 masking. The watchdog still notices: waits only ever exit by timeout while
  // a waiter stays queued.
  fault::Plan plan;
  plan.rate = 1.0;  // lose every notify
  plan.site_mask = fault::SiteBit(FaultSite::kNotifyLost);
  fault::Injector injector(plan);

  Runtime rt;
  rt.scheduler().set_fault_injector(&injector);
  MonitorLock lock(rt.scheduler(), "queue");
  Condition ready(lock, "queue-ready", 50 * kUsecPerMsec);
  bool produced = false;
  bool consumed = false;

  fault::WatchdogOptions options;
  options.period = 100 * kUsecPerMsec;
  options.missing_notify_min_timeouts = 3;
  fault::Watchdog watchdog(std::move(options));
  watchdog.WatchCondition(&ready);
  watchdog.Start(rt);

  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    while (!produced) {
      ready.Wait();
    }
    consumed = true;
  });
  rt.ForkDetached([&] {
    // Produce late enough that several timeout exits pile up first — the watchdog needs to see
    // the waiter stuck (>= min_timeouts timeout exits, zero notified exits) while it scans.
    pcr::thisthread::Sleep(800 * kUsecPerMsec);
    MonitorGuard guard(lock);
    produced = true;
    ready.Notify();  // injected lost: the waiter stays asleep until its timeout
  });
  rt.RunFor(2 * kUsecPerSec);

  EXPECT_TRUE(consumed) << "the CV timeout masks the lost notify; progress resumes";
  ASSERT_FALSE(watchdog.reports().empty());
  bool found = false;
  for (const fault::WatchdogReport& report : watchdog.reports()) {
    if (report.kind == fault::ReportKind::kMissingNotify) {
      found = true;
      EXPECT_NE(report.detail.find("queue-ready"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(ready.notified_exits(), 0);
  EXPECT_GE(ready.timeout_exits(), 3);
  rt.Shutdown();
}

TEST(WatchdogTest, LostNotifyWithoutTimeoutHangsUntilShutdown) {
  // The same bug minus the masking timeout: the consumer never wakes and the run cannot go
  // quiescent — the failure a timeout would have hidden is now structural.
  fault::Plan plan;
  plan.rate = 1.0;
  plan.site_mask = fault::SiteBit(FaultSite::kNotifyLost);
  fault::Injector injector(plan);

  Runtime rt;
  rt.scheduler().set_fault_injector(&injector);
  MonitorLock lock(rt.scheduler(), "queue");
  Condition ready(lock, "queue-ready", /*timeout=*/-1);
  bool produced = false;
  bool consumed = false;
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    while (!produced) {
      ready.Wait();
    }
    consumed = true;
  });
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    produced = true;
    ready.Notify();
  });
  // An untimed CV waiter leaves nothing runnable and no timers, so the run counts as
  // quiescent — but the consumer is still parked and never finished.
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_FALSE(rt.quiescent_info().all_threads_done) << "the consumer is stuck on the CV";
  EXPECT_FALSE(consumed);
  rt.Shutdown();
}

TEST(WatchdogTest, ReportsWaitForCycleDeadlock) {
  Config config;
  config.detect_deadlock = false;  // let the watchdog find it, not the contention-time check
  Runtime rt(config);
  MonitorLock a(rt.scheduler(), "module-a");
  MonitorLock b(rt.scheduler(), "module-b");

  fault::WatchdogOptions options;
  options.period = 100 * kUsecPerMsec;
  options.detect_starvation = false;
  fault::Watchdog watchdog(std::move(options));
  watchdog.Start(rt);

  rt.ForkDetached(
      [&] {
        MonitorGuard guard_a(a);
        pcr::thisthread::Sleep(20 * kUsecPerMsec);
        MonitorGuard guard_b(b);
      },
      ForkOptions{.name = "ab-order"});
  rt.ForkDetached(
      [&] {
        MonitorGuard guard_b(b);
        pcr::thisthread::Sleep(20 * kUsecPerMsec);
        MonitorGuard guard_a(a);
      },
      ForkOptions{.name = "ba-order"});
  rt.RunFor(kUsecPerSec);

  ASSERT_FALSE(watchdog.reports().empty());
  const fault::WatchdogReport& report = watchdog.reports().front();
  EXPECT_EQ(report.kind, fault::ReportKind::kDeadlock);
  EXPECT_EQ(report.threads.size(), 2u);
  EXPECT_NE(report.detail.find("ab-order"), std::string::npos);
  EXPECT_NE(report.detail.find("ba-order"), std::string::npos);
  // The cycle is reported once, not re-reported every scan.
  int deadlock_reports = 0;
  for (const fault::WatchdogReport& r : watchdog.reports()) {
    deadlock_reports += r.kind == fault::ReportKind::kDeadlock ? 1 : 0;
  }
  EXPECT_EQ(deadlock_reports, 1);
  rt.Shutdown();
}

TEST(WatchdogTest, ReportsStarvedRunnableThread) {
  Runtime rt;  // one processor: a high-priority spinner monopolizes it
  fault::WatchdogOptions options;
  options.period = 100 * kUsecPerMsec;
  options.starvation_quanta = 4;
  options.detect_deadlock = false;
  fault::Watchdog watchdog(std::move(options));
  watchdog.Start(rt);

  rt.ForkDetached(
      [&] {
        for (;;) {
          pcr::thisthread::Compute(10 * kUsecPerMsec);
        }
      },
      ForkOptions{.name = "spinner", .priority = 5});
  rt.ForkDetached([] { pcr::thisthread::Compute(kUsecPerMsec); },
                  ForkOptions{.name = "starved", .priority = 1});
  rt.RunFor(2 * kUsecPerSec);

  bool found = false;
  for (const fault::WatchdogReport& report : watchdog.reports()) {
    if (report.kind == fault::ReportKind::kStarvation &&
        report.detail.find("starved") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  rt.Shutdown();
}

TEST(WatchdogTest, RecoveryCallbackCanBreakTheDeadlock) {
  Config config;
  config.detect_deadlock = false;  // let the watchdog find it, not the contention-time check
  Runtime rt(config);
  MonitorLock a(rt.scheduler(), "module-a");
  MonitorLock b(rt.scheduler(), "module-b");

  int recoveries = 0;
  fault::WatchdogOptions options;
  options.period = 100 * kUsecPerMsec;
  options.detect_starvation = false;
  options.recover = [&](pcr::Runtime&, const fault::WatchdogReport& report) {
    if (report.kind == fault::ReportKind::kDeadlock) {
      ++recoveries;
      a.Poison();  // break the cycle; waiters see MonitorPoisoned and unwind
    }
  };
  fault::Watchdog watchdog(std::move(options));
  watchdog.Start(rt);

  bool first_recovered = false;
  bool second_recovered = false;
  rt.ForkDetached([&] {
    try {
      MonitorGuard guard_a(a);
      pcr::thisthread::Sleep(20 * kUsecPerMsec);
      MonitorGuard guard_b(b);
    } catch (const pcr::MonitorPoisoned&) {
      first_recovered = true;
    }
  });
  rt.ForkDetached([&] {
    try {
      MonitorGuard guard_b(b);
      pcr::thisthread::Sleep(20 * kUsecPerMsec);
      MonitorGuard guard_a(a);
    } catch (const pcr::MonitorPoisoned&) {
      second_recovered = true;
    }
  });
  rt.RunFor(kUsecPerSec);
  EXPECT_EQ(recoveries, 1);
  EXPECT_TRUE(first_recovered || second_recovered);
  rt.Shutdown();
}

// ---------------------------------------------------------------------------
// X connection drops and reconnect
// ---------------------------------------------------------------------------

TEST(XFaultTest, SendFailsWhileDisconnectedAndBatchIsRetained) {
  Runtime rt;
  world::XServerModel server(rt);
  bool done = false;
  rt.ForkDetached([&] {
    std::vector<world::PaintRequest> batch = {{pcr::thisthread::Now(), 1, 0}};
    ASSERT_TRUE(server.Send(batch));
    server.InjectDrop(100 * kUsecPerMsec);
    EXPECT_FALSE(server.connected());
    EXPECT_FALSE(server.Send(batch));
    EXPECT_FALSE(server.TryReconnect()) << "downtime has not elapsed";
    pcr::thisthread::Sleep(150 * kUsecPerMsec);
    EXPECT_TRUE(server.TryReconnect());
    EXPECT_TRUE(server.Send(batch));
    done = true;
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_TRUE(done);
  EXPECT_EQ(server.drops(), 1);
  EXPECT_EQ(server.failed_sends(), 1);
  EXPECT_EQ(server.reconnects(), 1);
  EXPECT_EQ(server.flushes(), 2);
}

TEST(XFaultTest, XlClientReconnectsWithBackoffAndFlushesPendingOutput) {
  Runtime rt;
  world::XServerModel server(rt);
  pcr::InterruptSource connection(rt.scheduler(), "x-input");
  world::XlClient client(rt, server, connection);

  rt.ForkDetached([&] {
    pcr::thisthread::Sleep(10 * kUsecPerMsec);
    server.InjectDrop(250 * kUsecPerMsec);
    client.SendRequest({pcr::thisthread::Now(), 1, 0});
    client.Flush();  // fails; the reconnect thread takes over
  });
  rt.RunFor(3 * kUsecPerSec);

  EXPECT_GE(client.stats().send_failures, 1);
  EXPECT_EQ(client.stats().reconnects, 1);
  EXPECT_EQ(client.stats().reconnect_giveups, 0);
  EXPECT_EQ(server.reconnects(), 1);
  EXPECT_GE(client.stats().output_flushes, 1) << "pending output flushed on reconnect";
  EXPECT_EQ(server.requests_received(), 1);
  rt.Shutdown();
}

TEST(XFaultTest, XlReconnectGivesUpAfterBoundedRetries) {
  Runtime rt;
  world::XServerModel server(rt);
  pcr::InterruptSource connection(rt.scheduler(), "x-input");
  world::XlOptions options;
  options.reconnect_backoff_initial = 50 * kUsecPerMsec;
  options.reconnect_backoff_max = 100 * kUsecPerMsec;
  options.reconnect_max_retries = 3;
  world::XlClient client(rt, server, connection, options);

  rt.ForkDetached([&] {
    pcr::thisthread::Sleep(10 * kUsecPerMsec);
    server.InjectDrop(3600 * kUsecPerSec);  // effectively forever
    client.SendRequest({pcr::thisthread::Now(), 1, 0});
    client.Flush();
  });
  rt.RunFor(5 * kUsecPerSec);
  EXPECT_EQ(client.stats().reconnects, 0);
  // The maintenance thread re-arms reconnection each flush period, so give-ups keep
  // accumulating while the server stays down; at least one bounded cycle must have ended.
  EXPECT_GE(client.stats().reconnect_giveups, 1);
  EXPECT_FALSE(server.connected());
  rt.Shutdown();
}

TEST(XFaultTest, ReconnectBackoffScheduleIsDeterministic) {
  auto run_once = [] {
    Runtime rt;
    world::XServerModel server(rt);
    pcr::InterruptSource connection(rt.scheduler(), "x-input");
    world::XlClient client(rt, server, connection);
    rt.ForkDetached([&] {
      pcr::thisthread::Sleep(10 * kUsecPerMsec);
      server.InjectDrop(400 * kUsecPerMsec);
      client.SendRequest({pcr::thisthread::Now(), 1, 0});
      client.Flush();
    });
    rt.RunFor(3 * kUsecPerSec);
    uint64_t hash = explore::TraceHash(rt.tracer());
    rt.Shutdown();
    return hash;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Backlog-growth detection
// ---------------------------------------------------------------------------

fault::WatchdogOptions BacklogOnly(int scans) {
  fault::WatchdogOptions options;
  options.backlog_scans = scans;
  options.detect_deadlock = false;
  options.detect_starvation = false;
  options.detect_missing_notify = false;
  return options;
}

TEST(WatchdogTest, BacklogGrowthTripsAfterConsecutiveGrowthScansAndDedupes) {
  Runtime rt;
  fault::Watchdog watchdog(BacklogOnly(4));
  size_t depth = 0;
  watchdog.WatchQueue("paint-backlog", [&depth] { return depth; });

  // Three strictly-growing scans: below threshold, no report.
  for (size_t d : {10u, 20u, 30u}) {
    depth = d;
    watchdog.Scan(rt);
  }
  EXPECT_TRUE(watchdog.reports().empty());

  // The fourth consecutive growth trips exactly one report.
  depth = 40;
  watchdog.Scan(rt);
  ASSERT_EQ(watchdog.reports().size(), 1u);
  EXPECT_EQ(watchdog.reports().front().kind, fault::ReportKind::kBacklogGrowth);
  EXPECT_NE(watchdog.reports().front().detail.find("paint-backlog"), std::string::npos);

  // Sustained growth is one episode, not one report per scan.
  for (size_t d : {50u, 60u, 70u, 80u, 90u}) {
    depth = d;
    watchdog.Scan(rt);
  }
  EXPECT_EQ(watchdog.reports().size(), 1u);

  // A shrink ends the episode; a fresh run of growth is a fresh report.
  depth = 15;
  watchdog.Scan(rt);
  for (size_t d : {25u, 35u, 45u, 55u}) {
    depth = d;
    watchdog.Scan(rt);
  }
  EXPECT_EQ(watchdog.reports().size(), 2u);
  rt.Shutdown();
}

TEST(WatchdogTest, OscillatingQueueDepthNeverTripsBacklog) {
  Runtime rt;
  fault::Watchdog watchdog(BacklogOnly(3));
  size_t depth = 0;
  watchdog.WatchQueue("healthy-queue", [&depth] { return depth; });
  // A served queue breathes: depth rises and falls but never grows `backlog_scans` in a row.
  for (size_t d : {5u, 12u, 3u, 9u, 14u, 6u, 11u, 16u, 2u, 8u, 13u, 4u}) {
    depth = d;
    watchdog.Scan(rt);
  }
  EXPECT_TRUE(watchdog.reports().empty());
  // Flat depth is not growth either.
  depth = 20;
  for (int i = 0; i < 6; ++i) {
    watchdog.Scan(rt);
  }
  EXPECT_TRUE(watchdog.reports().empty());
  rt.Shutdown();
}

TEST(WatchdogTest, ServiceWorldOverloadTripsBacklogViaWatchedShardQueues) {
  // End-to-end wiring: the daemon scans the service world's per-shard queues while an
  // un-admitted open-loop overload grows them without bound.
  world::ServiceSpec spec;
  spec.clients = 800;
  spec.shards = 2;
  spec.seed = 7;
  spec.queue_capacity = 0;  // unbounded
  spec.phases = {{.duration = 2 * kUsecPerSec, .offered_per_sec = 6000}};

  fault::Watchdog watchdog(BacklogOnly(4));
  world::ServiceRunOptions options;
  options.setup = [&watchdog](Runtime&, world::ServiceWorld& w) {
    for (int s = 0; s < w.shards(); ++s) {
      watchdog.WatchQueue("shard" + std::to_string(s), [&w, s] { return w.shard_depth(s); });
    }
    // Started inside setup so the daemon fiber exists before virtual time moves.
    watchdog.Start(w.runtime());
  };
  world::RunServiceLoad(spec, options);

  bool found = false;
  for (const fault::WatchdogReport& report : watchdog.reports()) {
    found = found || report.kind == fault::ReportKind::kBacklogGrowth;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Parked paint batches: Cedar's x_pending_ re-merge
// ---------------------------------------------------------------------------

TEST(XFaultTest, CedarRemergesParkedBatchesExactlyOnceInOrderAfterReconnect) {
  Runtime rt;
  world::CedarWorld world(rt);
  world.xserver().set_record_requests(true);

  // The world paints a little on its own even when idle, so the probe batches use a window id
  // range (>= 700) no Cedar window uses; filtering the received log on it gives a complete
  // delivery record for exactly the probe traffic.
  rt.ForkDetached(
      [&] {
        pcr::thisthread::Sleep(10 * kUsecPerMsec);
        world.xserver().InjectDrop(600 * kUsecPerMsec);
        // Three distinct damage regions while the server is down; each flush attempt finds
        // the connection dead and parks the batch in x_pending_.
        world.x_buffer().Submit({pcr::thisthread::Now(), 701, 0});
        pcr::thisthread::Sleep(60 * kUsecPerMsec);
        world.x_buffer().Submit({pcr::thisthread::Now(), 701, 1});
        pcr::thisthread::Sleep(60 * kUsecPerMsec);
        // A duplicate key: must merge with the parked {701, 0}, not deliver twice.
        world.x_buffer().Submit({pcr::thisthread::Now(), 701, 0});
        world.x_buffer().Submit({pcr::thisthread::Now(), 702, 0});
        // Outlive the downtime, then poke one more paint through to trigger the recovery
        // flush that re-merges and resends the parked set.
        pcr::thisthread::Sleep(700 * kUsecPerMsec);
        world.x_buffer().Submit({pcr::thisthread::Now(), 703, 0});
      },
      ForkOptions{.name = "paint-driver"});
  rt.RunFor(3 * kUsecPerSec);

  EXPECT_EQ(world.xserver().drops(), 1);
  EXPECT_GE(world.xserver().reconnects(), 1);

  // Exactly once, in first-damage order: the four distinct (window, region) keys, nothing
  // delivered twice, nothing lost.
  std::vector<std::pair<int, int>> keys;
  for (const world::PaintRequest& request : world.xserver().received_log()) {
    if (request.window >= 700) {
      keys.emplace_back(request.window, request.region);
    }
  }
  std::vector<std::pair<int, int>> expected = {{701, 0}, {701, 1}, {702, 0}, {703, 0}};
  EXPECT_EQ(keys, expected);
  rt.Shutdown();
}

TEST(XFaultTest, CedarKeepsPaintingThroughDropStallPlanDeterministically) {
  // The same machinery under a probabilistic x-drop/x-stall plan and real keystroke traffic:
  // paints keep reaching the server after every drop, and the whole faulted run replays to an
  // identical trace.
  fault::Plan plan;
  plan.seed = 13;
  plan.rate = 0.05;
  plan.value = 2;  // stalls wedge the server for 2 quanta
  plan.site_mask = fault::SiteBit(FaultSite::kXDrop) | fault::SiteBit(FaultSite::kXStall);

  auto run_once = [&plan](int64_t* received, int64_t* drops) {
    fault::Injector injector(plan);
    Runtime rt;
    rt.scheduler().set_fault_injector(&injector);
    world::CedarWorld world(rt);
    world.keyboard().ScriptUniform(0, 4 * kUsecPerSec, 8.0, world::InputKind::kKey);
    rt.RunFor(6 * kUsecPerSec);
    *received = world.xserver().requests_received();
    *drops = world.xserver().drops();
    uint64_t hash = explore::TraceHash(rt.tracer());
    rt.Shutdown();
    return hash;
  };

  int64_t received_a = 0, drops_a = 0, received_b = 0, drops_b = 0;
  uint64_t first = run_once(&received_a, &drops_a);
  uint64_t second = run_once(&received_b, &drops_b);
  EXPECT_EQ(first, second);
  EXPECT_EQ(received_a, received_b);
  EXPECT_GE(drops_a, 1) << "the plan should have dropped the connection at least once";
  EXPECT_GT(received_a, 0) << "paints must keep landing after reconnects";
}

// ---------------------------------------------------------------------------
// Send failure economics: no server-side double charge, giveup -> recover
// ---------------------------------------------------------------------------

TEST(XFaultTest, FailedSendsChargeTheCallerButNeverTheServer) {
  Runtime rt;
  world::XServerModel server(rt);
  server.set_record_requests(true);
  bool done = false;
  rt.ForkDetached([&] {
    std::vector<world::PaintRequest> batch = {{pcr::thisthread::Now(), 1, 0},
                                              {pcr::thisthread::Now(), 1, 1}};
    server.InjectDrop(200 * kUsecPerMsec);
    pcr::Usec work_before = server.server_work();
    // The caller retries the same batch against the dead connection; every attempt fails,
    // keeps the batch with the caller, and adds nothing to the modelled server-side work.
    for (int attempt = 0; attempt < 5; ++attempt) {
      EXPECT_FALSE(server.Send(batch));
      pcr::thisthread::Sleep(20 * kUsecPerMsec);
    }
    EXPECT_EQ(server.server_work(), work_before);
    EXPECT_EQ(server.failed_sends(), 5);
    EXPECT_EQ(server.flushes(), 0);

    pcr::thisthread::Sleep(100 * kUsecPerMsec);
    ASSERT_TRUE(server.TryReconnect());
    ASSERT_TRUE(server.Send(batch));
    // Exactly one flush charge and one per-request charge per batch element — the failed
    // attempts did not pre-pay or double-bill any of it.
    EXPECT_EQ(server.server_work(),
              work_before + world::XServerCosts{}.per_flush + 2 * world::XServerCosts{}.per_request);
    done = true;
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_TRUE(done);
  EXPECT_EQ(server.received_log().size(), 2u);
}

TEST(XFaultTest, XlGiveupThenRecoveryStaysConsistentAndDeliversOnce) {
  Runtime rt;
  world::XServerModel server(rt);
  server.set_record_requests(true);
  pcr::InterruptSource connection(rt.scheduler(), "x-input");
  world::XlOptions options;
  options.reconnect_backoff_initial = 50 * kUsecPerMsec;
  options.reconnect_backoff_max = 100 * kUsecPerMsec;
  options.reconnect_max_retries = 2;
  world::XlClient client(rt, server, connection, options);

  rt.ForkDetached([&] {
    pcr::thisthread::Sleep(10 * kUsecPerMsec);
    // Down long enough that the first backoff cycle (2 retries, 50 + 100 ms) must give up,
    // short enough that a later maintenance-armed cycle succeeds.
    server.InjectDrop(1200 * kUsecPerMsec);
    client.SendRequest({pcr::thisthread::Now(), 1, 0});
    client.Flush();
  });
  rt.RunFor(5 * kUsecPerSec);

  // At least one bounded cycle ended in a giveup, and the counter did not double-count or
  // reset across the giveup -> recover boundary: every giveup preceded the one reconnect.
  EXPECT_GE(client.stats().reconnect_giveups, 1);
  EXPECT_EQ(client.stats().reconnects, 1);
  EXPECT_EQ(server.reconnects(), 1);
  EXPECT_TRUE(server.connected());
  // The retained output was delivered exactly once after recovery.
  ASSERT_EQ(server.received_log().size(), 1u);
  EXPECT_EQ(server.received_log().front().window, 1);
  EXPECT_EQ(server.requests_received(), 1);
  rt.Shutdown();
}

// ---------------------------------------------------------------------------
// Explorer integration: fault plans ride in repro strings
// ---------------------------------------------------------------------------

TEST(FaultReproTest, FifthFieldRoundTripsAndFourFieldStringsStillParse) {
  const explore::Repro repro{"scn", 7, {0, 0, 1, 0}, fault::Plan::Decode("f1,notify-lost@2")};
  EXPECT_EQ(repro.Encode(), "pcr1:scn:7:0r2x10:f1,notify-lost@2");

  explore::Repro parsed;
  ASSERT_TRUE(explore::Repro::Decode(repro.Encode(), &parsed));
  EXPECT_EQ(parsed.scenario, "scn");
  EXPECT_EQ(parsed.runtime_seed, 7u);
  EXPECT_EQ(parsed.decisions, repro.decisions);
  EXPECT_EQ(parsed.fault_plan.Encode(), "f1,notify-lost@2");

  // Four-field strings (pre-fault repros) parse with an empty fault plan.
  ASSERT_TRUE(explore::Repro::Decode("pcr1:scn:7:01", &parsed));
  EXPECT_FALSE(parsed.fault_plan.enabled());
  // A fifth colon with nothing after it is malformed, not "no faults".
  EXPECT_FALSE(explore::Repro::Decode("pcr1:scn:7:01:", &parsed));
}

// A body that fails exactly when a notify is lost: the consumer's timed wait expires without
// the flag having been delivered in time.
void LostNotifyBody(pcr::Runtime& rt, explore::TestContext& ctx) {
  auto lock = std::make_shared<MonitorLock>(rt.scheduler(), "box");
  auto ready = std::make_shared<Condition>(*lock, "box-ready", 200 * kUsecPerMsec);
  auto delivered = std::make_shared<bool>(false);
  auto on_time = std::make_shared<bool>(false);
  rt.ForkDetached([lock, ready, delivered, on_time] {
    // Await returns true whenever the predicate held at wakeup, even if the wakeup was a late
    // timeout — so measure elapsed virtual time rather than trusting the return value.
    Usec start = pcr::thisthread::Now();
    MonitorGuard guard(*lock);
    bool got = ready->Await([&] { return *delivered; }, 100 * kUsecPerMsec);
    *on_time = got && pcr::thisthread::Now() - start < 150 * kUsecPerMsec;
  });
  rt.ForkDetached([lock, ready, delivered] {
    pcr::thisthread::Sleep(10 * kUsecPerMsec);
    MonitorGuard guard(*lock);
    *delivered = true;
    ready->Notify();
  });
  rt.RunUntilQuiescent(2 * kUsecPerSec);
  ctx.Check(*on_time, "event was not delivered before the deadline");
  rt.Shutdown();
}

TEST(FaultExploreTest, FaultPlanSearchFindsLostNotifyAndReproCarriesThePlan) {
  explore::ExploreOptions options;
  options.scenario_name = "lost-notify";
  options.budget = 16;
  // The body's shared_ptr-held state lives on the heap with refcounts owned by fiber frames;
  // checkpoint restores rewind those frames but not the heap, so this body must run from zero.
  options.checkpoint = false;
  options.fault_plan.rate = 0.5;
  options.fault_plan.site_mask = fault::SiteBit(FaultSite::kNotifyLost);

  explore::Explorer explorer(options);
  explore::ExploreResult result = explorer.Explore(LostNotifyBody);
  ASSERT_FALSE(result.failures.empty());
  const explore::ScheduleOutcome& failure = result.failures.front();
  EXPECT_NE(failure.repro.find(":f1,"), std::string::npos)
      << "the minimized repro should pin its fault plan: " << failure.repro;
  EXPECT_NE(failure.repro.find("notify-lost@"), std::string::npos)
      << "minimization should convert the rate plan to a script: " << failure.repro;

  // The repro replays to the identical trace, faults included.
  explore::ScheduleOutcome first = explorer.Replay(failure.repro, LostNotifyBody);
  explore::ScheduleOutcome second = explorer.Replay(failure.repro, LostNotifyBody);
  EXPECT_TRUE(first.failed);
  EXPECT_EQ(first.trace_hash, failure.trace_hash);
  EXPECT_EQ(second.trace_hash, failure.trace_hash);
}

TEST(FaultExploreTest, NoFaultPlanMeansNoFailuresInThisBody) {
  explore::ExploreOptions options;
  options.budget = 8;
  options.checkpoint = false;  // see above: shared_ptr state is not checkpoint-rewindable
  explore::Explorer explorer(options);
  explore::ExploreResult result = explorer.Explore(LostNotifyBody);
  EXPECT_TRUE(result.failures.empty())
      << "without injected faults the notify always arrives in time";
}

}  // namespace
