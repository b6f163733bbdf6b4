// Tests for the trace module: histograms, statistics windows, genealogy, census.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "src/pcr/runtime.h"
#include "src/trace/census.h"
#include "src/trace/genealogy.h"
#include "src/trace/histogram.h"
#include "src/trace/serialize.h"
#include "src/trace/stats.h"

namespace trace {
namespace {

using pcr::kUsecPerMsec;
using pcr::kUsecPerSec;

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(10, 5);  // [0,10) ... [40,50) + overflow
  h.Add(0);
  h.Add(9);
  h.Add(10);
  h.Add(49);
  h.Add(1000);
  EXPECT_EQ(h.count(0), 2);
  EXPECT_EQ(h.count(1), 1);
  EXPECT_EQ(h.count(4), 1);
  EXPECT_EQ(h.overflow_count(), 1);
  EXPECT_EQ(h.total_count(), 5);
}

TEST(HistogramTest, FractionsAndWeights) {
  Histogram h(10, 10);
  for (int i = 0; i < 8; ++i) {
    h.Add(5);  // 8 samples of weight 5 in [0,10)
  }
  h.Add(95);
  h.Add(95);  // 2 samples of weight 95 in [90,100)
  EXPECT_DOUBLE_EQ(h.CountFraction(0, 10), 0.8);
  // Weighted: 40 vs 190 -> long intervals dominate total time, like the paper's 45-50 ms runs.
  EXPECT_NEAR(h.WeightFraction(90, 100), 190.0 / 230.0, 1e-9);
}

TEST(HistogramTest, PeakBucketFindsMode) {
  Histogram h(1, 100);
  for (int i = 0; i < 10; ++i) {
    h.Add(3);
  }
  for (int i = 0; i < 4; ++i) {
    h.Add(45);
  }
  EXPECT_EQ(h.PeakBucket(0, 10), 3);
  EXPECT_EQ(h.PeakBucket(20, 99), 45);
}

TEST(HistogramTest, RenderProducesBars) {
  Histogram h(10, 3);
  h.Add(1);
  h.Add(2);
  std::string art = h.Render(10);
  EXPECT_NE(art.find("[0, 10) 2"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(StatsTest, CountsForksAndSwitches) {
  pcr::Runtime rt;
  rt.ForkDetached([&] {
    for (int i = 0; i < 5; ++i) {
      pcr::ThreadId child = rt.Fork([] { pcr::thisthread::Compute(kUsecPerMsec); });
      rt.Join(child);
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  Summary s = Summarize(rt.tracer());
  EXPECT_EQ(s.forks, 6);  // the driver + 5 children
  EXPECT_GT(s.switches, 5);
  EXPECT_GT(s.forks_per_sec, 0);
}

TEST(StatsTest, WindowExcludesWarmup) {
  pcr::Runtime rt;
  rt.ForkDetached([&] {
    rt.ForkDetached([] {});  // fork inside warm-up
    pcr::thisthread::Sleep(200 * kUsecPerMsec);
  });
  rt.RunFor(kUsecPerSec);
  StatsOptions options;
  options.window_begin = 100 * kUsecPerMsec;
  options.window_end = kUsecPerSec;
  Summary s = Summarize(rt.tracer(), options);
  EXPECT_EQ(s.forks, 0);  // both forks happened before the window
  EXPECT_EQ(s.window_us, 900 * kUsecPerMsec);
}

TEST(StatsTest, MaxLiveThreadsTracksConcurrency) {
  pcr::Runtime rt;
  rt.ForkDetached([&] {
    std::vector<pcr::ThreadId> children;
    for (int i = 0; i < 7; ++i) {
      children.push_back(rt.Fork([] { pcr::thisthread::Sleep(10 * kUsecPerMsec); }));
    }
    for (pcr::ThreadId tid : children) {
      rt.Join(tid);
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  Summary s = Summarize(rt.tracer());
  EXPECT_EQ(s.max_live_threads, 8);  // driver + 7 sleeping children
}

TEST(StatsTest, CpuTimeByPriorityAttributesRuns) {
  pcr::Runtime rt;
  rt.ForkDetached([&] { pcr::thisthread::Compute(30 * kUsecPerMsec); },
                  pcr::ForkOptions{.priority = 2});
  rt.ForkDetached([&] { pcr::thisthread::Compute(10 * kUsecPerMsec); },
                  pcr::ForkOptions{.priority = 6});
  rt.RunUntilQuiescent(kUsecPerSec);
  Summary s = Summarize(rt.tracer());
  EXPECT_NEAR(static_cast<double>(s.cpu_time_by_priority[2]), 30.0 * kUsecPerMsec,
              kUsecPerMsec);
  EXPECT_NEAR(static_cast<double>(s.cpu_time_by_priority[6]), 10.0 * kUsecPerMsec,
              kUsecPerMsec);
  EXPECT_EQ(s.cpu_time_by_priority[3], 0);
}

TEST(StatsTest, DistinctObjectCountsMatchUsage) {
  pcr::Runtime rt;
  pcr::MonitorLock m1(rt.scheduler(), "m1");
  pcr::MonitorLock m2(rt.scheduler(), "m2");
  pcr::Condition cv(m1, "cv", 10 * kUsecPerMsec);
  rt.ForkDetached([&] {
    {
      pcr::MonitorGuard g(m1);
      cv.Wait();
    }
    pcr::MonitorGuard g(m2);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  Summary s = Summarize(rt.tracer());
  EXPECT_EQ(s.distinct_cvs, 1);
  EXPECT_EQ(s.distinct_mls, 2);
}

TEST(StatsTest, DistinctObjectCountsTakeAnySixtyFourBitId) {
  // Hand-built and loaded traces may carry any id, not only the runtime's small dense ones:
  // ids on both sides of any dense/sparse split, repeated, and out of order.
  const std::vector<ObjectId> ml_ids = {1,       7,           1,          1ull << 20, 64,
                                        1ull << 63, ~ObjectId{0}, 1ull << 20, 0,          63,
                                        ~ObjectId{0}, (1ull << 20) - 1, 7};
  const std::vector<ObjectId> cv_ids = {~ObjectId{0}, 5, 5, 1ull << 40, 1ull << 40};
  Tracer tracer;
  Usec t = 0;
  for (ObjectId id : ml_ids) {
    tracer.Record(Event{.time_us = ++t, .type = EventType::kMlEnter, .object = id});
  }
  for (ObjectId id : cv_ids) {
    tracer.Record(Event{.time_us = ++t, .type = EventType::kCvWait, .object = id});
  }
  tracer.Record(Event{.time_us = ++t});  // the default window ends before the last event
  Summary s = Summarize(tracer);
  EXPECT_EQ(s.ml_enters, static_cast<int64_t>(ml_ids.size()));
  EXPECT_EQ(s.distinct_mls, static_cast<int64_t>(std::set<ObjectId>(ml_ids.begin(),
                                                                     ml_ids.end()).size()));
  EXPECT_EQ(s.distinct_cvs, 3);
}

TEST(StatsTest, ExecutionIntervalsSumToBusyTime) {
  pcr::Runtime rt;
  rt.ForkDetached([] { pcr::thisthread::Compute(20 * kUsecPerMsec); });
  rt.ForkDetached([] { pcr::thisthread::Compute(20 * kUsecPerMsec); });
  rt.RunFor(kUsecPerSec);
  Summary s = Summarize(rt.tracer());
  EXPECT_EQ(s.exec_intervals.total_weight(), s.busy_time_us);
  EXPECT_NEAR(static_cast<double>(s.busy_time_us), 40.0 * kUsecPerMsec,
              2.0 * kUsecPerMsec);
}

TEST(TracerTest, DisabledTracerDropsEvents) {
  pcr::Config config;
  config.trace_events = false;
  pcr::Runtime rt(config);
  rt.ForkDetached([] { pcr::thisthread::Compute(kUsecPerMsec); });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(rt.tracer().size(), 0u);
}

TEST(TracerTest, DumpRendersWindow) {
  pcr::Runtime rt;
  rt.ForkDetached([] { pcr::thisthread::Compute(kUsecPerMsec); },
                  pcr::ForkOptions{.name = "worker"});
  rt.RunUntilQuiescent(kUsecPerSec);
  std::ostringstream os;
  rt.tracer().Dump(os, 0, kUsecPerSec, 100);
  EXPECT_NE(os.str().find("fork"), std::string::npos);
  EXPECT_NE(os.str().find("switch"), std::string::npos);
}

TEST(GenealogyTest, ClassifiesEternalWorkerTransient) {
  pcr::Runtime rt;
  // Eternal: never exits. Worker: long-lived but completes. Transient: quick.
  rt.ForkDetached([] {
    while (true) {
      pcr::thisthread::Sleep(100 * kUsecPerMsec);
    }
  });
  rt.ForkDetached([&] {
    rt.ForkDetached([] { pcr::thisthread::Compute(kUsecPerMsec); });  // transient child
    pcr::thisthread::Sleep(1500 * kUsecPerMsec);                      // worker-length life
  });
  rt.RunFor(3 * kUsecPerSec);
  GenealogySummary g = AnalyzeGenealogy(rt.tracer());
  EXPECT_EQ(g.eternal, 1);
  EXPECT_EQ(g.workers, 1);
  EXPECT_EQ(g.transients, 1);
  EXPECT_EQ(g.max_transient_generation, 1);
  rt.Shutdown();
}

TEST(GenealogyTest, CountsSecondGenerationTransients) {
  pcr::Runtime rt;
  rt.ForkDetached([&] {
    // Generation 1 transient forks a generation 2 transient — the formatter pattern; the paper
    // observed "none of our benchmarks exhibited forking generations greater than 2".
    rt.ForkDetached([&] {
      rt.ForkDetached([] { pcr::thisthread::Compute(kUsecPerMsec); });
      pcr::thisthread::Compute(kUsecPerMsec);
    });
    pcr::thisthread::Sleep(1500 * kUsecPerMsec);
  });
  rt.RunFor(3 * kUsecPerSec);
  GenealogySummary g = AnalyzeGenealogy(rt.tracer());
  EXPECT_EQ(g.max_transient_generation, 2);
  rt.Shutdown();
}

TEST(SerializeTest, RoundTripPreservesEveryEvent) {
  pcr::Runtime rt;
  rt.ForkDetached([&] {
    pcr::ThreadId child = rt.Fork([] { pcr::thisthread::Compute(kUsecPerMsec); });
    rt.Join(child);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  std::ostringstream out;
  size_t written = WriteTrace(out, rt.tracer());
  EXPECT_EQ(written, rt.tracer().size());

  Tracer loaded;
  std::istringstream in(out.str());
  EXPECT_EQ(ReadTrace(in, &loaded), static_cast<int64_t>(written));
  ASSERT_EQ(loaded.size(), rt.tracer().size());
  const std::vector<Event> original_events = rt.tracer().CopyEvents();
  const std::vector<Event> loaded_events = loaded.CopyEvents();
  for (size_t i = 0; i < loaded.size(); ++i) {
    const Event& a = original_events[i];
    const Event& b = loaded_events[i];
    EXPECT_EQ(a.time_us, b.time_us);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.thread, b.thread);
    EXPECT_EQ(a.object, b.object);
    EXPECT_EQ(a.arg, b.arg);
  }
  // Stats computed from the loaded trace match the original.
  Summary original = Summarize(rt.tracer());
  Summary reloaded = Summarize(loaded);
  EXPECT_EQ(original.switches, reloaded.switches);
  EXPECT_EQ(original.ml_enters, reloaded.ml_enters);
}

TEST(SerializeTest, RejectsForeignFiles) {
  Tracer tracer;
  std::istringstream junk("not a trace\n1 2 3\n");
  EXPECT_EQ(ReadTrace(junk, &tracer), -1);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(CensusTest, CountsAndFractions) {
  Census census;
  census.Register(Paradigm::kDeferWork, "shell: keystroke worker");
  census.Register(Paradigm::kDeferWork, "mail: send in background");
  census.Register(Paradigm::kSleeper, "cursor blinker");
  EXPECT_EQ(census.total(), 3);
  EXPECT_EQ(census.count(Paradigm::kDeferWork), 2);
  EXPECT_NEAR(census.fraction(Paradigm::kDeferWork), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(census.sites().size(), 3u);
  census.Clear();
  EXPECT_EQ(census.total(), 0);
}

TEST(CensusTest, ParadigmNamesAreStable) {
  EXPECT_EQ(ParadigmName(Paradigm::kSlackProcess), "Slack processes");
  EXPECT_EQ(ParadigmName(Paradigm::kTaskRejuvenation), "Task rejuvenate");
  EXPECT_EQ(ParadigmName(Paradigm::kUnknown), "Unknown or other");
}

}  // namespace
}  // namespace trace
