// Tests for the observability layer: interval reconstruction, Chrome trace export, the metrics
// registry, symbol-aware serialization, and explorer self-profiling.
//
// The interval and export tests run on a hand-written mini-trace: every event is placed by
// hand, so the expected intervals (and the exporter's exact bytes) are derivable on paper. The
// metrics tests close the loop the other way — a real run's counters must agree with the
// post-hoc stats computed from its event buffer wherever the two channels overlap.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/explore/explorer.h"
#include "src/pcr/condition.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/trace/export_chrome.h"
#include "src/trace/intervals.h"
#include "src/trace/metrics.h"
#include "src/trace/serialize.h"
#include "src/trace/stats.h"
#include "tests/allocation_counter.h"

namespace {

using pcr::kUsecPerMsec;
using pcr::kUsecPerSec;
using trace::Event;
using trace::EventType;
using trace::ThreadPhase;
using trace::Usec;

void Add(trace::Tracer& t, Usec us, EventType type, int pri, uint16_t proc, trace::ThreadId
         thread, trace::ObjectId object, uint64_t arg, uint32_t tsym, uint32_t osym) {
  Event e;
  e.time_us = us;
  e.type = type;
  e.priority = static_cast<uint8_t>(pri);
  e.processor = proc;
  e.thread = thread;
  e.object = object;
  e.arg = arg;
  e.thread_sym = tsym;
  e.object_sym = osym;
  t.Record(e);
}

// Two threads on one processor: "main" (priority 5) forks "worker" (priority 2), holds monitor
// 100 while worker contends, waits on CV 200 until worker notifies, sleeps through worker's
// exit, and exits last. Every interval below is derivable by hand from these 20 events.
void BuildMiniTrace(trace::Tracer& t) {
  const uint32_t sym_main = t.symbols().Intern("main");
  const uint32_t sym_worker = t.symbols().Intern("worker");
  const uint32_t sym_mu = t.symbols().Intern("mu");
  const uint32_t sym_cv = t.symbols().Intern("cv");
  Add(t, 0, EventType::kThreadFork, 5, 0, 1, 2, 2, sym_main, sym_worker);
  Add(t, 0, EventType::kSwitch, 5, 0, 1, 0, 0, sym_main, 0);
  Add(t, 10, EventType::kMlEnter, 5, 0, 1, 100, 0, sym_main, sym_mu);
  Add(t, 20, EventType::kSwitch, 2, 0, 2, 0, 0, sym_worker, 0);
  Add(t, 30, EventType::kMlContend, 2, 0, 2, 100, 1, sym_worker, sym_mu);
  Add(t, 30, EventType::kSwitch, 5, 0, 1, 0, 0, sym_main, 0);
  Add(t, 40, EventType::kMlExit, 5, 0, 1, 100, 0, sym_main, sym_mu);
  Add(t, 45, EventType::kCvWait, 5, 0, 1, 200, 0, sym_main, sym_cv);
  Add(t, 45, EventType::kSwitch, 2, 0, 2, 0, 0, sym_worker, 0);
  Add(t, 50, EventType::kCvNotify, 2, 0, 2, 200, 1, sym_worker, sym_cv);
  Add(t, 55, EventType::kMlExit, 2, 0, 2, 100, 0, sym_worker, sym_mu);
  Add(t, 60, EventType::kSwitch, 5, 0, 1, 0, 0, sym_main, 0);
  Add(t, 60, EventType::kCvNotified, 5, 0, 1, 200, 0, sym_main, sym_cv);
  Add(t, 70, EventType::kSleep, 5, 0, 1, 0, 30, sym_main, 0);
  Add(t, 70, EventType::kSwitch, 2, 0, 2, 0, 0, sym_worker, 0);
  Add(t, 80, EventType::kThreadExit, 2, 0, 2, 0, 0, sym_worker, 0);
  Add(t, 90, EventType::kSwitch, 0, 0, 0, 0, 0, 0, 0);
  Add(t, 100, EventType::kTimerFire, 5, 0, 1, 0, 0, sym_main, 0);
  Add(t, 105, EventType::kSwitch, 5, 0, 1, 0, 0, sym_main, 0);
  Add(t, 120, EventType::kThreadExit, 5, 0, 1, 0, 0, sym_main, 0);
}

void ExpectInterval(const trace::ThreadInterval& iv, ThreadPhase phase, Usec begin, Usec end) {
  EXPECT_EQ(iv.phase, phase);
  EXPECT_EQ(iv.begin, begin);
  EXPECT_EQ(iv.end, end);
}

TEST(IntervalsTest, MiniTraceReconstructsBothThreads) {
  trace::Tracer t;
  BuildMiniTrace(t);
  trace::Timeline timeline = trace::BuildTimeline(t);

  EXPECT_EQ(timeline.begin, 0);
  EXPECT_EQ(timeline.end, 120);
  ASSERT_EQ(timeline.threads.size(), 2u);

  const trace::ThreadTimeline& main = timeline.threads[0];
  EXPECT_EQ(main.id, 1u);
  EXPECT_EQ(t.symbols().Name(main.name_sym), "main");
  EXPECT_EQ(main.born, 0);
  EXPECT_EQ(main.died, 120);
  ASSERT_EQ(main.intervals.size(), 8u);
  ExpectInterval(main.intervals[0], ThreadPhase::kRunning, 0, 20);
  ExpectInterval(main.intervals[1], ThreadPhase::kReady, 20, 30);
  ExpectInterval(main.intervals[2], ThreadPhase::kRunning, 30, 45);
  ExpectInterval(main.intervals[3], ThreadPhase::kCvWaiting, 45, 60);
  ExpectInterval(main.intervals[4], ThreadPhase::kRunning, 60, 70);
  ExpectInterval(main.intervals[5], ThreadPhase::kSleeping, 70, 100);
  ExpectInterval(main.intervals[6], ThreadPhase::kReady, 100, 105);
  ExpectInterval(main.intervals[7], ThreadPhase::kRunning, 105, 120);
  EXPECT_EQ(main.ResidencyIn(ThreadPhase::kRunning), 60);
  EXPECT_EQ(main.ResidencyIn(ThreadPhase::kReady), 15);
  EXPECT_EQ(main.ResidencyIn(ThreadPhase::kCvWaiting), 15);
  EXPECT_EQ(main.ResidencyIn(ThreadPhase::kSleeping), 30);
  EXPECT_EQ(main.ResidencyIn(ThreadPhase::kBlockedMonitor), 0);

  const trace::ThreadTimeline& worker = timeline.threads[1];
  EXPECT_EQ(worker.id, 2u);
  EXPECT_EQ(t.symbols().Name(worker.name_sym), "worker");
  EXPECT_EQ(worker.born, 0);
  EXPECT_EQ(worker.died, 80);
  ASSERT_EQ(worker.intervals.size(), 6u);
  ExpectInterval(worker.intervals[0], ThreadPhase::kReady, 0, 20);
  ExpectInterval(worker.intervals[1], ThreadPhase::kRunning, 20, 30);
  ExpectInterval(worker.intervals[2], ThreadPhase::kBlockedMonitor, 30, 45);
  ExpectInterval(worker.intervals[3], ThreadPhase::kRunning, 45, 60);
  ExpectInterval(worker.intervals[4], ThreadPhase::kReady, 60, 70);
  ExpectInterval(worker.intervals[5], ThreadPhase::kRunning, 70, 80);
  EXPECT_EQ(worker.ResidencyIn(ThreadPhase::kBlockedMonitor), 15);

  // The residencies partition each thread's lifetime: no time is lost or double-counted.
  EXPECT_EQ(main.ResidencyIn(ThreadPhase::kRunning) + main.ResidencyIn(ThreadPhase::kReady) +
                main.ResidencyIn(ThreadPhase::kCvWaiting) +
                main.ResidencyIn(ThreadPhase::kSleeping),
            main.died - main.born);
  EXPECT_EQ(worker.ResidencyIn(ThreadPhase::kRunning) + worker.ResidencyIn(ThreadPhase::kReady) +
                worker.ResidencyIn(ThreadPhase::kBlockedMonitor),
            worker.died - worker.born);

  EXPECT_NE(timeline.Find(1), nullptr);
  EXPECT_EQ(timeline.Find(99), nullptr);
}

TEST(IntervalsTest, MiniTraceMonitorAndCvSpans) {
  trace::Tracer t;
  BuildMiniTrace(t);
  trace::Timeline timeline = trace::BuildTimeline(t);

  // main held mu 10..40; worker took it over at its dispatch (45) and released at 55.
  ASSERT_EQ(timeline.monitor_holds.size(), 2u);
  EXPECT_EQ(timeline.monitor_holds[0].holder, 1u);
  EXPECT_EQ(timeline.monitor_holds[0].begin, 10);
  EXPECT_EQ(timeline.monitor_holds[0].end, 40);
  EXPECT_EQ(timeline.monitor_holds[1].holder, 2u);
  EXPECT_EQ(timeline.monitor_holds[1].begin, 45);
  EXPECT_EQ(timeline.monitor_holds[1].end, 55);
  EXPECT_EQ(t.symbols().Name(timeline.monitor_holds[0].monitor_sym), "mu");

  // worker blocked on mu 30..45 against main (priority 5 vs 2: not an inversion).
  ASSERT_EQ(timeline.monitor_waits.size(), 1u);
  const trace::MonitorWait& w = timeline.monitor_waits[0];
  EXPECT_EQ(w.waiter, 2u);
  EXPECT_EQ(w.holder, 1u);
  EXPECT_EQ(w.waiter_priority, 2);
  EXPECT_EQ(w.holder_priority, 5);
  EXPECT_EQ(w.begin, 30);
  EXPECT_EQ(w.end, 45);
  EXPECT_TRUE(trace::FindPriorityInversions(timeline).empty());

  // main's CV wait spans WAIT (45) to the completion event after re-dispatch (60).
  ASSERT_EQ(timeline.cv_waits.size(), 1u);
  const trace::CvWait& cw = timeline.cv_waits[0];
  EXPECT_EQ(cw.waiter, 1u);
  EXPECT_EQ(cw.begin, 45);
  EXPECT_EQ(cw.end, 60);
  EXPECT_TRUE(cw.completed);
  EXPECT_FALSE(cw.by_timeout);
}

TEST(IntervalsTest, FindsPriorityInversion) {
  trace::Tracer t;
  const uint32_t sym_mu = t.symbols().Intern("mu");
  // Thread 1 (priority 2) holds mu when thread 2 (priority 6) contends: a Section 6.2
  // inversion — the waiter outranks the holder.
  Add(t, 0, EventType::kSwitch, 2, 0, 1, 0, 0, 0, 0);
  Add(t, 5, EventType::kMlEnter, 2, 0, 1, 100, 0, 0, sym_mu);
  Add(t, 10, EventType::kSwitch, 6, 0, 2, 0, 0, 0, 0);
  Add(t, 15, EventType::kMlContend, 6, 0, 2, 100, 1, 0, sym_mu);
  trace::Timeline timeline = trace::BuildTimeline(t);
  std::vector<trace::MonitorWait> inversions = trace::FindPriorityInversions(timeline);
  ASSERT_EQ(inversions.size(), 1u);
  EXPECT_EQ(inversions[0].waiter, 2u);
  EXPECT_EQ(inversions[0].holder, 1u);
  EXPECT_EQ(inversions[0].waiter_priority, 6);
  EXPECT_EQ(inversions[0].holder_priority, 2);
}

TEST(IntervalsTest, ThrowsOnNonMonotonePerProcessorTimes) {
  trace::Tracer t;
  Add(t, 100, EventType::kSwitch, 5, 0, 1, 0, 0, 0, 0);
  Add(t, 50, EventType::kYield, 5, 0, 1, 0, 0, 0, 0);  // time runs backwards on processor 0
  try {
    trace::BuildTimeline(t);
    FAIL() << "expected TimelineError";
  } catch (const trace::TimelineError& err) {
    EXPECT_EQ(err.event_index(), 1u);
    EXPECT_NE(std::string(err.what()).find("event #1"), std::string::npos);
  }
}

TEST(IntervalsTest, PerProcessorMonotonicityAllowsCrossProcessorSkew) {
  trace::Tracer t;
  // Processor 1's clock reads behind processor 0's — legal; monotonicity is per processor.
  Add(t, 100, EventType::kSwitch, 5, 0, 1, 0, 0, 0, 0);
  Add(t, 50, EventType::kSwitch, 5, 1, 2, 0, 0, 0, 0);
  Add(t, 60, EventType::kYield, 5, 1, 2, 0, 0, 0, 0);
  EXPECT_NO_THROW(trace::BuildTimeline(t));
}

TEST(ChromeExportTest, GoldenMiniTrace) {
  trace::Tracer t;
  const uint32_t sym_main = t.symbols().Intern("main");
  Add(t, 0, EventType::kSwitch, 5, 0, 1, 0, 0, sym_main, 0);
  Add(t, 10, EventType::kCvNotify, 5, 0, 1, 7, 0, sym_main, 0);
  Add(t, 20, EventType::kThreadExit, 5, 0, 1, 0, 0, sym_main, 0);

  std::ostringstream os;
  trace::ExportChromeTrace(os, t);
  // The writer streams: instant markers land at event time, interval slices when they close,
  // and name metadata at Finish. Trace viewers sort by ts/ph, so record order is free — but it
  // is pinned here because streamed and buffered exports must stay byte-identical.
  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"threads\"}},\n"
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
      "\"args\": {\"name\": \"processors\"}},\n"
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 3, "
      "\"args\": {\"name\": \"monitors\"}},\n"
      "{\"name\": \"notify\", \"cat\": \"marker\", \"ph\": \"i\", \"s\": \"t\", \"ts\": 10, "
      "\"pid\": 1, \"tid\": 1, \"args\": {\"cv\": \"cv-7\", \"woken\": 0}},\n"
      "{\"name\": \"running\", \"cat\": \"state\", \"ph\": \"X\", \"ts\": 0, \"dur\": 20, "
      "\"pid\": 1, \"tid\": 1, \"args\": {\"processor\": 0}},\n"
      "{\"name\": \"main\", \"cat\": \"run\", \"ph\": \"X\", \"ts\": 0, \"dur\": 20, "
      "\"pid\": 2, \"tid\": 0, \"args\": {\"thread\": 1}},\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"main\"}},\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, "
      "\"args\": {\"name\": \"cpu-0\"}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ChromeExportTest, RealRunNamesEveryForkedThreadAndEmitsInstants) {
  pcr::Runtime rt;
  pcr::MonitorLock mu(rt.scheduler(), "mu");
  pcr::Condition cv(mu, "cv", 100 * kUsecPerMsec);
  rt.ForkDetached(
      [&] {
        pcr::MonitorGuard g(mu);
        cv.Wait();
      },
      pcr::ForkOptions{.name = "consumer"});
  rt.ForkDetached(
      [&] {
        pcr::thisthread::Sleep(5 * kUsecPerMsec);
        pcr::MonitorGuard g(mu);
        cv.Notify();
      },
      pcr::ForkOptions{.name = "producer"});
  rt.RunUntilQuiescent(kUsecPerSec);

  std::ostringstream os;
  trace::ExportChromeTrace(os, rt.tracer());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"args\": {\"name\": \"consumer\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"producer\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"notify\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"hold\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"cv-waiting\""), std::string::npos);
}

TEST(SerializeTest, V2RemapsSymbolsIntoPrePopulatedTracer) {
  trace::Tracer a;
  const uint32_t alpha = a.symbols().Intern("alpha");  // id 1 in a
  const uint32_t beta = a.symbols().Intern("beta");    // id 2 in a
  Add(a, 5, EventType::kMlEnter, 3, 0, 1, 42, 0, alpha, beta);
  std::ostringstream out;
  EXPECT_EQ(trace::WriteTrace(out, a), 1u);

  // The target tracer already interned other names, so the file's ids cannot be used verbatim.
  trace::Tracer b;
  b.symbols().Intern("zulu");  // takes id 1 in b
  b.symbols().Intern("beta");  // takes id 2 in b — collides with the file's id for "beta"
  std::istringstream in(out.str());
  ASSERT_EQ(trace::ReadTrace(in, &b), 1);
  ASSERT_EQ(b.size(), 1u);
  const Event e = *b.view().begin();
  EXPECT_EQ(b.symbols().Name(e.thread_sym), "alpha");
  EXPECT_EQ(b.symbols().Name(e.object_sym), "beta");
  EXPECT_NE(e.thread_sym, alpha);  // "alpha" was re-interned past "zulu", so the id moved
  EXPECT_EQ(e.object_sym, 2u);     // "beta" resolved to b's existing entry
}

TEST(SerializeTest, RejectsMalformedSymbolLines) {
  {
    trace::Tracer t;  // ids must be dense starting at 1
    std::istringstream in("pcr-trace v2\n#sym\t2\talpha\n");
    EXPECT_EQ(trace::ReadTrace(in, &t), -1);
  }
  {
    trace::Tracer t;  // missing the id/name tab separator
    std::istringstream in("pcr-trace v2\n#sym\t1alpha\n");
    EXPECT_EQ(trace::ReadTrace(in, &t), -1);
  }
  {
    trace::Tracer t;  // id is not a number
    std::istringstream in("pcr-trace v2\n#sym\tx\talpha\n");
    EXPECT_EQ(trace::ReadTrace(in, &t), -1);
  }
}

TEST(TracerTest, DumpTruncatesAtLimitWithMarker) {
  trace::Tracer t;
  BuildMiniTrace(t);
  std::ostringstream os;
  t.Dump(os, 0, 1000, 3);
  const std::string text = os.str();
  // 3 event lines plus the marker accounting for the other 17 of the 20 mini-trace events.
  EXPECT_NE(text.find("... truncated (17 more events)"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(MetricsTest, Log2BucketMapping) {
  EXPECT_EQ(trace::Log2Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(trace::Log2Histogram::BucketIndex(0), 0);
  EXPECT_EQ(trace::Log2Histogram::BucketIndex(1), 1);
  EXPECT_EQ(trace::Log2Histogram::BucketIndex(2), 2);
  EXPECT_EQ(trace::Log2Histogram::BucketIndex(3), 2);
  EXPECT_EQ(trace::Log2Histogram::BucketIndex(4), 3);
  EXPECT_EQ(trace::Log2Histogram::BucketIndex(7), 3);
  EXPECT_EQ(trace::Log2Histogram::BucketIndex(8), 4);
  EXPECT_EQ(trace::Log2Histogram::BucketFloor(0), 0);
  EXPECT_EQ(trace::Log2Histogram::BucketFloor(1), 1);
  EXPECT_EQ(trace::Log2Histogram::BucketFloor(3), 4);

  trace::Log2Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(4);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 5);
  EXPECT_EQ(h.max(), 4);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(MetricsTest, RegistryHandlesAreStableAndJsonIsDeterministic) {
  trace::MetricsRegistry reg;
  trace::Counter* b = reg.counter("b");
  b->Add(2);
  reg.counter("a")->Add(1);
  EXPECT_EQ(reg.counter("b"), b);  // register-or-get: same name, same handle
  trace::Log2Histogram* h = reg.histogram("h");
  h->Record(0);
  h->Record(1);
  h->Record(4);

  std::ostringstream os;
  reg.WriteJson(os);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"a\": 1,\n"
      "    \"b\": 2\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"h\": {\"count\": 3, \"sum\": 5, \"max\": 4, \"buckets\": [1, 1, 0, 1]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(os.str(), expected);
  EXPECT_EQ(reg.FindCounter("nope"), nullptr);
}

// Registration is register-or-get in one tree walk: a repeated name, even one longer than the
// short-string buffer, returns the handle it got first and adds no entry.
TEST(MetricsTest, RepeatedLookupsReturnTheFirstHandleAndAddNothing) {
  const std::string long_name = "monitor.a-name-past-the-short-string-buffer.contentions";
  trace::MetricsRegistry reg;
  trace::Counter* c = reg.counter("monitor.contentions");
  trace::Counter* long_counter = reg.counter(long_name);
  trace::Log2Histogram* h = reg.histogram("monitor.hold_us");
  reg.counter("a")->Add(1);
  c->Add(2);
  long_counter->Add(3);
  h->Record(5);
  std::ostringstream first;
  reg.WriteJson(first);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(reg.counter("monitor.contentions"), c);
    EXPECT_EQ(reg.counter(std::string_view(long_name)), long_counter);
    EXPECT_EQ(reg.histogram("monitor.hold_us"), h);
  }
  EXPECT_EQ(reg.counter_count(), 3u);
  EXPECT_EQ(reg.histogram_count(), 1u);
  std::ostringstream again;
  reg.WriteJson(again);
  EXPECT_EQ(again.str(), first.str());
  EXPECT_EQ(again.str(),
            "{\n"
            "  \"counters\": {\n"
            "    \"a\": 1,\n"
            "    \"monitor.a-name-past-the-short-string-buffer.contentions\": 3,\n"
            "    \"monitor.contentions\": 2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"monitor.hold_us\": {\"count\": 1, \"sum\": 5, \"max\": 5, "
            "\"buckets\": [0, 0, 0, 1]}\n"
            "  }\n"
            "}\n");
}

// The acceptance check for the metrics channel: where the registry and the post-hoc trace
// statistics measure the same thing, they must agree exactly on the same run.
TEST(MetricsTest, CountersAgreeWithPostHocStats) {
  pcr::Runtime rt;
  pcr::MonitorLock mu(rt.scheduler(), "shared");
  pcr::Condition cv(mu, "cv", 20 * kUsecPerMsec);
  rt.ForkDetached([&] {
    pcr::MonitorGuard g(mu);
    pcr::thisthread::Sleep(5 * kUsecPerMsec);  // hold across a sleep so the next fork contends
  });
  rt.ForkDetached([&] { pcr::MonitorGuard g(mu); });
  rt.ForkDetached([&] {
    pcr::MonitorGuard g(mu);
    cv.Wait();  // nobody notifies: completes by timeout
  });
  rt.RunUntilQuiescent(kUsecPerSec);

  const trace::Summary s = trace::Summarize(rt.tracer());
  const trace::MetricsRegistry& m = rt.scheduler().metrics();
  ASSERT_NE(m.FindCounter("sched.dispatches"), nullptr);
  EXPECT_EQ(m.FindCounter("sched.dispatches")->value(), s.switches);
  EXPECT_EQ(m.FindCounter("sched.preempts")->value(), s.preemptions);
  EXPECT_EQ(m.FindCounter("sched.forks")->value(), s.forks);
  EXPECT_EQ(m.FindCounter("monitor.contentions")->value(), s.ml_contentions);
  const trace::Log2Histogram* notified = m.FindHistogram("cv.wait_us.notified");
  const trace::Log2Histogram* timeout = m.FindHistogram("cv.wait_us.timeout");
  ASSERT_NE(notified, nullptr);
  ASSERT_NE(timeout, nullptr);
  EXPECT_EQ(static_cast<int64_t>(notified->count() + timeout->count()), s.cv_waits);
  EXPECT_GE(s.ml_contentions, 1);  // the workload really did contend
  EXPECT_GE(s.cv_waits, 1);       // ... and really did wait
}

TEST(MetricsTest, PerMonitorSeriesRegisterOnFirstContention) {
  pcr::Runtime rt;
  pcr::MonitorLock quiet(rt.scheduler(), "quiet");
  pcr::MonitorLock fought(rt.scheduler(), "fought");
  rt.ForkDetached([&] { pcr::MonitorGuard g(quiet); });
  rt.ForkDetached([&] {
    pcr::MonitorGuard g(fought);
    pcr::thisthread::Sleep(5 * kUsecPerMsec);
  });
  rt.ForkDetached([&] { pcr::MonitorGuard g(fought); });
  rt.RunUntilQuiescent(kUsecPerSec);

  const trace::MetricsRegistry& m = rt.scheduler().metrics();
  // Uncontended monitors stay out of the registry (rollups still cover them); contended ones
  // get their own series.
  EXPECT_EQ(m.FindCounter("monitor.quiet.contentions"), nullptr);
  ASSERT_NE(m.FindCounter("monitor.fought.contentions"), nullptr);
  EXPECT_GE(m.FindCounter("monitor.fought.contentions")->value(), 1);
  EXPECT_NE(m.FindHistogram("monitor.fought.hold_us"), nullptr);
  EXPECT_GE(m.FindCounter("monitor.contentions")->value(),
            m.FindCounter("monitor.fought.contentions")->value());
}

// The scheduler keeps the fixed-name metrics as plain values and fills the registry only when
// it is read, so turning metrics on costs a runtime, its first monitor and its first CV no
// allocation.
TEST(MetricsTest, ConstructionAllocatesTheSameWithMetricsOnAndOff) {
  auto construct = [](bool metrics) {
    pcr::Config config;
    config.metrics = metrics;
    return testing_support::CountAllocations([&config] {
             pcr::Runtime rt(config);
             pcr::MonitorLock mu(rt.scheduler(), "mu");
             pcr::Condition cv(mu, "cv");
           })
        .news;
  };
  const long off = construct(false);
  EXPECT_GT(off, 0);
  EXPECT_EQ(construct(true), off);
}

TEST(MetricsTest, ConfigMetricsOffLeavesRegistryEmpty) {
  pcr::Config config;
  config.metrics = false;
  pcr::Runtime rt(config);
  pcr::MonitorLock mu(rt.scheduler(), "mu");
  rt.ForkDetached([&] { pcr::MonitorGuard g(mu); });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(rt.scheduler().metrics().counter_count(), 0u);
  EXPECT_EQ(rt.scheduler().metrics().histogram_count(), 0u);
}

TEST(ExplorerTest, ProfileIsPopulatedAndReplayCaptureExportsTrace) {
  explore::TestBody body = [](pcr::Runtime& rt, explore::TestContext& ctx) {
    pcr::MonitorLock mu(rt.scheduler(), "mu");
    int done = 0;
    for (int i = 0; i < 2; ++i) {
      rt.ForkDetached([&] {
        pcr::MonitorGuard g(mu);
        ++done;
      });
    }
    rt.RunUntilQuiescent(kUsecPerSec);
    ctx.Check(done == 2, "both increments applied");
  };

  explore::ExploreOptions options;
  options.budget = 4;
  options.workers = 1;
  explore::Explorer explorer(options);
  explore::ExploreResult result = explorer.Explore(body);
  EXPECT_EQ(result.schedules_run, 4);
  EXPECT_GT(result.profile.total_sec, 0.0);
  EXPECT_GT(result.profile.run_sec, 0.0);
  EXPECT_GT(result.profile.schedules_per_sec, 0.0);
  EXPECT_GE(result.profile.total_sec,
            result.profile.baseline_sec + result.profile.sweep_sec);

  // Replay-with-capture (the --chrome-trace-on-failure hook): the replayed run's events and
  // symbols land in the capture tracer and reproduce the recorded hash.
  trace::Tracer capture;
  capture.symbols().Intern("stale-name");  // replaced wholesale by the replay's table
  explore::ScheduleOutcome again = explorer.Replay(result.baseline.repro, body, &capture);
  EXPECT_EQ(again.trace_hash, result.baseline.trace_hash);
  ASSERT_GT(capture.size(), 0u);
  bool saw_mu = false;
  for (const Event& e : capture.view()) {
    if (capture.symbols().Name(e.object_sym) == "mu") {
      saw_mu = true;
      break;
    }
  }
  EXPECT_TRUE(saw_mu);

  // A captured trace is immediately exportable.
  std::ostringstream os;
  trace::ExportChromeTrace(os, capture);
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace
