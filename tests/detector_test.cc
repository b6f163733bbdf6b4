// Tests for the post-run trace analyses (src/explore/detector.h, src/explore/hash.h): the
// detector's findings on a hand-built trace are pinned field by field and in order, a replay's
// findings, trace hash and coverage keys equal the separate whole-trace passes (AnalyzeTrace,
// TraceHash, TracePrefixHashes and a byte-wise reference for the edge keys), moved-from
// analyzers behave as empty ones, and a warm TraceFold allocates nothing per run.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/explore/corpus.h"
#include "src/explore/detector.h"
#include "src/explore/explorer.h"
#include "src/explore/hash.h"
#include "src/explore/scenarios.h"
#include "src/trace/tracer.h"
#include "tests/allocation_counter.h"

namespace {

using explore::Finding;
using explore::FindingKind;
using trace::Event;
using trace::EventType;

// Object ids the runtime never hands out: the detector must not assume a dense id range.
constexpr trace::ObjectId kFarCell = (uint64_t{1} << 40) + 5;
constexpr trace::ObjectId kFarCv = (uint64_t{1} << 40) + 100;

class TraceBuilder {
 public:
  TraceBuilder& Add(EventType type, trace::ThreadId thread, trace::ObjectId object = 0,
                    uint64_t arg = 0) {
    Event e;
    e.time_us = time_;
    time_ += 10;
    e.type = type;
    e.thread = thread;
    e.object = object;
    e.arg = arg;
    tracer_.Record(e);
    return *this;
  }
  const trace::Tracer& tracer() const { return tracer_; }

 private:
  trace::Tracer tracer_;
  trace::Usec time_ = 100;
};

// Every finding kind at once: two racing cells (one far outside the runtime's id range) and one
// guarded cell, a broadcast whose two waiters both leave without re-waiting, a CV whose waits
// all time out (far id) and a CV whose notifies all miss.
void BuildGoldenTrace(TraceBuilder& b) {
  b.Add(EventType::kThreadFork, 0, 1, 4)
      .Add(EventType::kThreadFork, 0, 2, 4)
      .Add(EventType::kThreadFork, 0, 3, 4)
      .Add(EventType::kThreadFork, 0, 4, 4)
      .Add(EventType::kThreadStart, 1)
      .Add(EventType::kSharedWrite, 0, 9);  // host setup: never part of a race
  // Cell 12 under monitor 3 by two threads: guarded and ordered through the monitor.
  b.Add(EventType::kMlEnter, 1, 3)
      .Add(EventType::kSharedWrite, 1, 12)
      .Add(EventType::kMlExit, 1, 3)
      .Add(EventType::kMlEnter, 2, 3)
      .Add(EventType::kSharedRead, 2, 12)
      .Add(EventType::kSharedWrite, 2, 12)
      .Add(EventType::kMlExit, 2, 3);
  // Cell 9: write by 1, read by 2, no lock, no order. The far cell: two unordered writes.
  b.Add(EventType::kSharedWrite, 1, 9)
      .Add(EventType::kSharedRead, 2, 9)
      .Add(EventType::kSharedRead, 2, 9)
      .Add(EventType::kSharedRead, 2, 9)
      .Add(EventType::kSharedWrite, 3, kFarCell)
      .Add(EventType::kSharedWrite, 4, kFarCell);
  // Broadcast on cv 20 (monitor 21) wakes threads 1 and 2; both leave 21 without re-waiting.
  // A second broadcast wakes 1 and 2 again; 1 re-waits, so only one leaves.
  b.Add(EventType::kMlEnter, 1, 21)
      .Add(EventType::kCvWait, 1, 20)
      .Add(EventType::kMlEnter, 2, 21)
      .Add(EventType::kCvWait, 2, 20)
      .Add(EventType::kMlEnter, 3, 21)
      .Add(EventType::kCvBroadcast, 3, 20, 2)
      .Add(EventType::kMlExit, 3, 21)
      .Add(EventType::kCvNotified, 1, 20)
      .Add(EventType::kMlEnter, 1, 21)
      .Add(EventType::kMlExit, 1, 21)
      .Add(EventType::kCvNotified, 2, 20)
      .Add(EventType::kMlEnter, 2, 21)
      .Add(EventType::kMlExit, 2, 21)
      .Add(EventType::kMlEnter, 3, 21)
      .Add(EventType::kCvBroadcast, 3, 20, 2)
      .Add(EventType::kMlExit, 3, 21)
      .Add(EventType::kCvNotified, 1, 20)
      .Add(EventType::kMlEnter, 1, 21)
      .Add(EventType::kCvWait, 1, 20)
      .Add(EventType::kCvNotified, 2, 20)
      .Add(EventType::kMlEnter, 2, 21)
      .Add(EventType::kMlExit, 2, 21);
  // The far cv: three waits, all ended by timeout.
  for (int i = 0; i < 3; ++i) {
    b.Add(EventType::kCvWait, 4, kFarCv).Add(EventType::kCvTimeout, 4, kFarCv);
  }
  // Cv 30: three notifies that wake nobody while two waits are issued.
  b.Add(EventType::kCvNotify, 3, 30, 0)
      .Add(EventType::kCvWait, 4, 30)
      .Add(EventType::kCvNotify, 3, 30, 0)
      .Add(EventType::kCvWait, 4, 30)
      .Add(EventType::kCvNotify, 3, 30, 0)
      .Add(EventType::kThreadExit, 1)
      .Add(EventType::kThreadJoin, 0, 1);
}

struct ExpectedFinding {
  FindingKind kind;
  trace::ObjectId object;
  trace::ThreadId thread_a;
  trace::ThreadId thread_b;
  trace::Usec time_us;
  const char* detail;
};

void ExpectSameFindings(const std::vector<Finding>& actual,
                        const std::vector<Finding>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const Finding& a = actual[i];
    const Finding& b = expected[i];
    EXPECT_EQ(std::tie(a.kind, a.object, a.thread_a, a.thread_b, a.time_us, a.detail),
              std::tie(b.kind, b.object, b.thread_a, b.thread_b, b.time_us, b.detail))
        << "finding " << i;
  }
}

void ExpectFindings(const std::vector<Finding>& actual,
                    const std::vector<ExpectedFinding>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("finding " + std::to_string(i));
    EXPECT_EQ(actual[i].kind, expected[i].kind);
    EXPECT_EQ(actual[i].object, expected[i].object);
    EXPECT_EQ(actual[i].thread_a, expected[i].thread_a);
    EXPECT_EQ(actual[i].thread_b, expected[i].thread_b);
    EXPECT_EQ(actual[i].time_us, expected[i].time_us);
    EXPECT_EQ(actual[i].detail, expected[i].detail);
  }
}

// The order is part of the output: SameFailure and the campaign's failure keys read the first
// finding. Races come first, in the order the detector has always listed its cells in.
TEST(DetectorGoldenTest, HandBuiltTraceFindingsArePinned) {
  TraceBuilder b;
  BuildGoldenTrace(b);
  ExpectFindings(
      explore::AnalyzeTrace(b.tracer()),
      {
          {FindingKind::kUnprotectedSharedAccess, kFarCell, 3, 4, 280,
           "cell 1099511627781: write by thread 3 at 270us races with write by thread 4 at "
           "280us (no common lock, no happens-before order)"},
          {FindingKind::kUnprotectedSharedAccess, 9, 1, 2, 240,
           "cell 9: write by thread 1 at 230us races with read by thread 2 at 240us (no common "
           "lock, no happens-before order)"},
          {FindingKind::kWaitNotInLoop, 20, 0, 0, 340,
           "broadcast on cv 20 at 340us woke 2 waiters and 2 left the monitor without "
           "re-checking (WAIT not in a loop?)"},
          {FindingKind::kNotifyWithoutWaiter, 30, 0, 0, 610,
           "cv 30: 3 notifies woke nobody while 2 waits were issued — notify and wait never "
           "met"},
          {FindingKind::kTimeoutDrivenCv, kFarCv, 0, 0, 560,
           "cv 1099511627876: all 3 completed waits ended by timeout, none by notify — timeout "
           "driven (missing NOTIFY?)"},
      });
}

// The edge keys as CollectTraceCoverage has always computed them: byte-wise FNV-1a over four
// words from a salted basis, with ordered maps for the lock state.
uint64_t ReferenceMix(uint64_t salt, std::initializer_list<uint64_t> words) {
  uint64_t h = 0xcbf29ce484222325ull ^ salt;
  for (uint64_t v : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::vector<uint64_t> ReferenceEdgeKeys(const trace::Tracer& tracer, uint64_t salt) {
  std::vector<uint64_t> keys;
  std::map<trace::ObjectId, trace::ThreadId> last_owner;
  std::map<trace::ThreadId, int> locks_held;
  for (const Event& e : tracer.view()) {
    switch (e.type) {
      case EventType::kMlEnter: {
        trace::ThreadId& prev = last_owner[e.object];
        keys.push_back(ReferenceMix(salt, {1, e.object, prev, e.thread}));
        prev = e.thread;
        ++locks_held[e.thread];
        break;
      }
      case EventType::kMlExit:
        locks_held[e.thread] = std::max(0, locks_held[e.thread] - 1);
        break;
      case EventType::kMlContend:
        keys.push_back(ReferenceMix(salt, {2, e.object, e.thread, e.arg}));
        break;
      case EventType::kCvNotified:
        keys.push_back(ReferenceMix(salt, {3, e.object, e.thread, 1}));
        break;
      case EventType::kCvTimeout:
        keys.push_back(ReferenceMix(salt, {3, e.object, e.thread, 0}));
        break;
      case EventType::kCvNotify:
      case EventType::kCvBroadcast:
        keys.push_back(ReferenceMix(salt, {4, e.object, e.thread, e.arg > 0 ? 1u : 0u}));
        break;
      case EventType::kSharedRead:
      case EventType::kSharedWrite:
        if (e.thread != 0) {
          const uint64_t is_write = e.type == EventType::kSharedWrite ? 1 : 0;
          const auto held = static_cast<uint64_t>(std::min(locks_held[e.thread], 3));
          keys.push_back(ReferenceMix(salt, {5, e.object, e.thread, (is_write << 2) | held}));
        }
        break;
      case EventType::kFaultInjected:
        keys.push_back(ReferenceMix(salt, {6, e.object, e.arg, 0}));
        break;
      case EventType::kWatchdogReport:
        keys.push_back(ReferenceMix(salt, {7, e.object, 0, 0}));
        break;
      case EventType::kForkFailed:
        keys.push_back(ReferenceMix(salt, {8, e.thread, e.arg, 0}));
        break;
      case EventType::kMonitorPoisoned:
        keys.push_back(ReferenceMix(salt, {9, e.object, 0, 0}));
        break;
      default:
        break;
    }
  }
  return keys;
}

// One replay of `repro` by a coverage-collecting explorer, checked against the separate passes
// over the same events. Returns the trace's length.
size_t ExpectOnePassMatchesSeparatePasses(const std::string& scenario_name,
                                          const std::string& repro) {
  SCOPED_TRACE(repro);
  const explore::BugScenario* scenario = explore::FindScenario(scenario_name);
  if (scenario == nullptr) {
    ADD_FAILURE() << "no scenario " << scenario_name;
    return 0;
  }
  explore::ExploreOptions options = scenario->options;
  options.collect_coverage = true;
  options.coverage_salt = explore::Corpus::ContentHash(scenario_name);
  const explore::Explorer explorer(options);
  trace::Tracer capture;
  const explore::ScheduleOutcome outcome = explorer.Replay(repro, scenario->body, &capture);

  ExpectSameFindings(outcome.findings, explore::AnalyzeTrace(capture));
  EXPECT_EQ(outcome.trace_hash, explore::TraceHash(capture));

  std::vector<uint64_t> coverage = explore::TracePrefixHashes(capture, 64);
  for (uint64_t& h : coverage) {
    h ^= options.coverage_salt;
  }
  const std::vector<uint64_t> edges = ReferenceEdgeKeys(capture, options.coverage_salt);
  coverage.insert(coverage.end(), edges.begin(), edges.end());
  std::sort(coverage.begin(), coverage.end());
  coverage.erase(std::unique(coverage.begin(), coverage.end()), coverage.end());
  EXPECT_EQ(outcome.coverage, coverage);
  return capture.size();
}

TEST(FoldEquivalenceTest, OnePassMatchesTheSeparatePasses) {
  size_t longest = 0;
  for (const char* name : {"buggy_monitor", "good_monitor", "missing_notify", "weakmem_race"}) {
    for (int seed = 1; seed <= 3; ++seed) {
      // A forced preempt a few consultations in, at a different point per seed.
      longest = std::max(longest, ExpectOnePassMatchesSeparatePasses(
                                      name, "pcr1:" + std::string(name) + ":" +
                                                std::to_string(seed) + ":0r" +
                                                std::to_string(2 * seed) + "x1"));
    }
  }
  ExpectOnePassMatchesSeparatePasses(
      "buggy_monitor", "pcr1:buggy_monitor:1::f1,rate=0.05,sites=thread-death+notify-lost,seed=3");
  EXPECT_GT(longest, 64u) << "no trace crossed a prefix stride";
}


// A moved-from analyzer is an empty one, whichever side of an assignment it is on.
TEST(TraceAnalyzerTest, MovedFromAnalyzersAssignFeedAndFinish) {
  TraceBuilder b;
  BuildGoldenTrace(b);
  const std::vector<Finding> expected = explore::AnalyzeTrace(b.tracer());
  ASSERT_EQ(expected.size(), 5u);
  auto fed = [&b] {
    explore::TraceAnalyzer analyzer;
    for (const Event& e : b.tracer().view()) {
      analyzer.Feed(e);
    }
    return analyzer;
  };
  auto feed = [&b](explore::TraceAnalyzer& analyzer) {
    for (const Event& e : b.tracer().view()) {
      analyzer.Feed(e);
    }
  };

  // Copy-assign into a moved-from analyzer, and go on folding.
  explore::TraceAnalyzer into = fed();
  explore::TraceAnalyzer taken = std::move(into);
  const explore::TraceAnalyzer full = fed();
  into = full;
  ExpectSameFindings(into.Finish(), expected);
  feed(into);
  explore::TraceAnalyzer twice = fed();
  feed(twice);
  ExpectSameFindings(into.Finish(), twice.Finish());
  ExpectSameFindings(taken.Finish(), expected);

  // Copy- and move-assign from a moved-from analyzer: the target is emptied.
  explore::TraceAnalyzer from = fed();
  explore::TraceAnalyzer sink = std::move(from);
  explore::TraceAnalyzer copied = fed();
  copied = from;
  EXPECT_TRUE(copied.Finish().empty());
  feed(copied);
  ExpectSameFindings(copied.Finish(), expected);
  explore::TraceAnalyzer moved = fed();
  moved = std::move(from);
  EXPECT_TRUE(moved.Finish().empty());
  feed(moved);
  ExpectSameFindings(moved.Finish(), expected);
  EXPECT_TRUE(from.Finish().empty());
  feed(from);
  ExpectSameFindings(from.Finish(), expected);
  ExpectSameFindings(sink.Finish(), expected);

  // Self-assignment keeps the state.
  explore::TraceAnalyzer self = fed();
  explore::TraceAnalyzer& alias = self;
  self = alias;
  ExpectSameFindings(self.Finish(), expected);
  self = std::move(alias);
  ExpectSameFindings(self.Finish(), expected);
}

// Once a fold has seen a run as large, Reset, Feed and the checkpoint cursor's per-leaf
// copy-assignment reuse its capacity: no operator new at all, coverage on.
TEST(TraceFoldTest, WarmFoldAllocatesNothingPerRun) {
  std::vector<std::unique_ptr<trace::Tracer>> traces;
  for (const char* name : {"buggy_monitor", "good_monitor", "missing_notify", "weakmem_race"}) {
    const explore::BugScenario* scenario = explore::FindScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    traces.push_back(std::make_unique<trace::Tracer>());
    explore::Explorer(scenario->options)
        .Replay("pcr1:" + std::string(name) + ":1:0r2x1", scenario->body, traces.back().get());
  }
  TraceBuilder golden;
  BuildGoldenTrace(golden);

  explore::TraceFold fold;
  explore::TraceFold leaf;
  auto run_all = [&] {
    for (const std::unique_ptr<trace::Tracer>& trace : traces) {
      fold.Reset(/*coverage=*/true, /*salt=*/7);
      fold.Feed(*trace);
      leaf = fold;
    }
  };
  run_all();  // warm-up: one run per scenario
  EXPECT_EQ(testing_support::CountAllocations(run_all).news, 0);

  // The allocation counter itself works.
  std::vector<Finding> findings;
  EXPECT_GT(testing_support::CountAllocations([&] {
              fold.Reset(true, 7);
              fold.Feed(golden.tracer());  // far ids and a second cell: past the warm capacity
              findings = fold.Findings();
            }).news,
            0);
  ExpectSameFindings(findings, explore::AnalyzeTrace(golden.tracer()));
}

}  // namespace
