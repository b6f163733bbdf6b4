// Unit tests for the segmented trace log (src/trace/tracer.h): packed-record round-trips
// across segment seams, the wide-record escape, cursor positioning, window/arena resets, and
// checkpoint-style truncate-and-diverge.
//
// The explorer's equivalence suites (ctest -L checkpoint / explore) prove the log behaves
// under real checkpoint-and-branch workloads; these tests pin the tracer primitives those
// suites rest on, at exact segment geometry (capacity 1024) the end-to-end runs only hit by
// accident.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/tracer.h"

namespace {

using trace::Event;
using trace::EventType;
using trace::Tracer;
using trace::Usec;

constexpr size_t kCap = trace::internal::kSegmentCapacity;

Event Simple(Usec t, uint32_t thread = 1) {
  Event e;
  e.time_us = t;
  e.type = EventType::kYield;
  e.thread = thread;
  return e;
}

void ExpectSame(const Event& a, const Event& b, size_t at) {
  EXPECT_EQ(a.time_us, b.time_us) << "event " << at;
  EXPECT_EQ(a.type, b.type) << "event " << at;
  EXPECT_EQ(a.priority, b.priority) << "event " << at;
  EXPECT_EQ(a.processor, b.processor) << "event " << at;
  EXPECT_EQ(a.thread, b.thread) << "event " << at;
  EXPECT_EQ(a.object, b.object) << "event " << at;
  EXPECT_EQ(a.arg, b.arg) << "event " << at;
  EXPECT_EQ(a.thread_sym, b.thread_sym) << "event " << at;
  EXPECT_EQ(a.object_sym, b.object_sym) << "event " << at;
}

void ExpectMatches(const Tracer& tracer, const std::vector<Event>& source) {
  const std::vector<Event> copied = tracer.CopyEvents();
  ASSERT_EQ(copied.size(), source.size());
  for (size_t i = 0; i < source.size(); ++i) {
    ExpectSame(copied[i], source[i], i);
  }
}

// A mix that exercises every encoding path: narrow records, wide escapes (64-bit object/arg
// and symbol ids past 16 bits), backwards time steps (cross-processor skew) and 32-bit delta
// overflows — all at a deterministic seed.
std::vector<Event> RandomSource(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Event> source;
  Usec t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<Usec>(rng() % 100);
    if (rng() % 500 == 0) {
      t -= 50;
    }
    if (rng() % 1000 == 0) {
      t += 0x100000000ll;
    }
    Event e;
    e.time_us = t;
    e.type = static_cast<EventType>(rng() % 30);
    e.priority = static_cast<uint8_t>(rng() % 8);
    e.processor = static_cast<uint16_t>(rng() % 4);
    e.thread = static_cast<uint32_t>(rng() % 100);
    if (rng() % 50 == 0) {
      e.object = rng();
      e.arg = rng();
    } else {
      e.object = rng() % 1000;
      e.arg = rng() % 1000;
    }
    if (rng() % 200 == 0) {
      e.thread_sym = 0x10000 + static_cast<uint32_t>(rng() % 100);
    } else {
      e.thread_sym = static_cast<uint32_t>(rng() % 10);
    }
    e.object_sym = static_cast<uint32_t>(rng() % 10);
    source.push_back(e);
  }
  return source;
}

TEST(SegmentedTracerTest, RollsSegmentsAtCapacityWithoutLoss) {
  Tracer tracer;
  std::vector<Event> source;
  for (size_t i = 0; i < 3 * kCap + 5; ++i) {
    source.push_back(Simple(static_cast<Usec>(i * 7)));
    tracer.Record(source.back());
  }
  EXPECT_EQ(tracer.size(), source.size());
  EXPECT_EQ(tracer.last_time(), source.back().time_us);
  ExpectMatches(tracer, source);
}

TEST(SegmentedTracerTest, WideAndNonMonotoneRecordsRoundTrip) {
  Tracer tracer;
  std::vector<Event> source;
  // A kRngSeed record carries the full 64-bit seed in arg — the canonical wide escape.
  Event seed = Simple(10);
  seed.type = EventType::kRngSeed;
  seed.arg = 0xdeadbeefcafef00dull;
  source.push_back(seed);
  // 64-bit object id.
  Event big_obj = Simple(11);
  big_obj.object = 0x1234567890ull;
  source.push_back(big_obj);
  // Symbol id past 16 bits.
  Event big_sym = Simple(12);
  big_sym.thread_sym = 0x1ffff;
  source.push_back(big_sym);
  // Backwards time step (per-processor monotone only) and a 32-bit delta overflow.
  source.push_back(Simple(5, 2));
  source.push_back(Simple(5 + 0x200000000ll, 2));
  for (const Event& e : source) {
    tracer.Record(e);
  }
  ExpectMatches(tracer, source);
}

TEST(SegmentedTracerTest, RandomizedRoundTripMatchesSource) {
  const std::vector<Event> source = RandomSource(5000, 42);
  Tracer tracer;
  for (const Event& e : source) {
    tracer.Record(e);
  }
  EXPECT_EQ(tracer.size(), source.size());
  ExpectMatches(tracer, source);
}

TEST(SegmentedTracerTest, ViewFromStartsAtTheRightEventAcrossSeams) {
  const std::vector<Event> source = RandomSource(3 * kCap, 7);
  Tracer tracer;
  for (const Event& e : source) {
    tracer.Record(e);
  }
  for (size_t from : {size_t(0), size_t(1), kCap - 1, kCap, kCap + 1, 2 * kCap, 3 * kCap - 1,
                      3 * kCap}) {
    size_t i = from;
    for (trace::EventCursor c = tracer.view(from).begin(); c != tracer.view(from).end(); ++c) {
      ASSERT_LT(i, source.size());
      EXPECT_EQ(c.index(), i);
      ExpectSame(*c, source[i], i);
      ++i;
    }
    EXPECT_EQ(i, source.size()) << "view(" << from << ") stopped early";
    EXPECT_EQ(tracer.view(from).size(), source.size() - from);
  }
}

TEST(SegmentedTracerTest, TruncateToBoundaryAndMidSegmentThenRerecordIsIdentity) {
  const std::vector<Event> source = RandomSource(5000, 99);
  Tracer tracer;
  for (const Event& e : source) {
    tracer.Record(e);
  }
  // Cuts at exact segment seams (kCap - 1, kCap, kCap + 1), mid-segment, and the ends.
  for (size_t cut : {size_t(4999), 4 * kCap, size_t(3000), 2 * kCap, kCap + 1, kCap, kCap - 1,
                     size_t(500), size_t(1), size_t(0)}) {
    tracer.TruncateTo(cut);
    ASSERT_EQ(tracer.size(), cut);
    if (cut > 0) {
      EXPECT_EQ(tracer.last_time(), source[cut - 1].time_us);
    } else {
      EXPECT_EQ(tracer.last_time(), 0);
    }
    for (size_t i = cut; i < source.size(); ++i) {
      tracer.Record(source[i]);
    }
    ExpectMatches(tracer, source);
  }
}

// What checkpoint restore actually does: rewind the log, then run a *different* schedule
// suffix. The retained log must read as old-prefix + new-suffix with nothing of the discarded
// branch bleeding through.
TEST(SegmentedTracerTest, TruncateThenDivergentAppendReadsAsPrefixPlusNewSuffix) {
  const std::vector<Event> first = RandomSource(2 * kCap + 100, 1);
  const std::vector<Event> branch = RandomSource(kCap + 50, 2);
  const size_t cut = kCap + 37;  // mid-segment
  Tracer tracer;
  for (const Event& e : first) {
    tracer.Record(e);
  }
  tracer.TruncateTo(cut);
  for (const Event& e : branch) {
    tracer.Record(e);
  }
  std::vector<Event> expected(first.begin(), first.begin() + cut);
  expected.insert(expected.end(), branch.begin(), branch.end());
  ExpectMatches(tracer, expected);
}

TEST(SegmentedTracerTest, ClearResetsWindowStartAndKeepsSymbols) {
  Tracer tracer;
  const uint32_t sym = tracer.symbols().Intern("worker");
  Event e = Simple(100);
  e.thread_sym = sym;
  tracer.Record(e);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.last_time(), 0);
  // The runtime caches interned ids in Tcbs and monitors, so Clear must keep them valid.
  EXPECT_EQ(tracer.symbols().Name(sym), "worker");
}

TEST(SegmentedTracerTest, AdoptedArenaTracerIsObservationallyIdenticalToFresh) {
  // Dirty a tracer well past one segment, with wide records.
  Tracer donor;
  for (const Event& e : RandomSource(3 * kCap, 21)) {
    donor.Record(e);
  }
  trace::SegmentArena arena = donor.TakeEventBuffer();
  EXPECT_EQ(donor.size(), 0u);

  Tracer recycled;
  recycled.AdoptEventBuffer(std::move(arena));
  Tracer fresh;

  EXPECT_EQ(recycled.size(), 0u);
  EXPECT_EQ(recycled.last_time(), 0);

  const std::vector<Event> source = RandomSource(2 * kCap + 99, 22);
  for (const Event& e : source) {
    recycled.Record(e);
    fresh.Record(e);
  }
  EXPECT_EQ(recycled.size(), fresh.size());
  EXPECT_EQ(recycled.last_time(), fresh.last_time());
  const std::vector<Event> a = recycled.CopyEvents();
  const std::vector<Event> b = fresh.CopyEvents();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectSame(a[i], b[i], i);
  }
}

}  // namespace
