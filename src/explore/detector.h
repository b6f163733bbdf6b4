// Post-run race and invariant detection over a recorded trace.
//
// The runtime already emits an event for every scheduler-visible action (trace/event.h); this
// module replays that stream through a lockset + vector-clock analysis and reports the bug
// patterns the paper catalogues:
//
//   * Unprotected shared access (Section 5.5): an Eraser-style lockset over weakly-ordered
//     kSharedRead/kSharedWrite accesses, filtered by a fork/join/notify happens-before check so
//     deliberately sequenced lock-free code is not flagged.
//   * WAIT-without-loop candidates (Section 5.3): one BROADCAST wakes several waiters and two or
//     more of them leave the monitor without re-checking (re-WAITing) — with one condition
//     instance per wakeup, somebody proceeded on a stale predicate.
//   * Timeout-driven condition variables (Section 5.3): every completed WAIT on a CV ended by
//     timeout — "timeouts had been introduced to compensate for missing NOTIFYs (bugs) ... the
//     system becomes timeout driven: it apparently works correctly but slowly".
//   * Notifies that never wake anyone (missed-rendezvous candidates).
//
// All detectors are heuristics over observable behaviour — they name *candidates* with enough
// context (object ids, thread ids, event times) to judge, and the Explorer treats them as
// failures only where a scenario opts in.

#ifndef SRC_EXPLORE_DETECTOR_H_
#define SRC_EXPLORE_DETECTOR_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/explore/hash.h"
#include "src/trace/tracer.h"

namespace explore {

enum class FindingKind : uint8_t {
  kUnprotectedSharedAccess,  // racing accesses to a weakmem cell
  kWaitNotInLoop,            // broadcast-woken waiters proceeded without rechecking
  kTimeoutDrivenCv,          // all waits on a CV completed by timeout
  kNotifyWithoutWaiter,      // all notifies on a waited-on CV woke nobody
};

std::string_view FindingKindName(FindingKind kind);

struct Finding {
  FindingKind kind;
  trace::ObjectId object = 0;   // cell / CV the finding is about
  trace::ThreadId thread_a = 0;
  trace::ThreadId thread_b = 0;
  trace::Usec time_us = 0;      // representative event time
  std::string detail;           // human-readable one-liner

  // Stable identity for dedup across schedules.
  bool SameBug(const Finding& other) const {
    return kind == other.kind && object == other.object;
  }
};

namespace internal {

// Numbers the ids a trace names 0, 1, 2, ... in first-seen order. A runtime hands out thread
// and object ids from small per-Runtime counters, so a direct table answers those; ids past it
// (hand-built traces) are found by a scan of the slots. Clear is O(1) and keeps capacity.
class IdSlots {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  uint32_t Find(uint64_t id) const {
    if (id < direct_.size()) {
      return direct_[id];
    }
    return id < kDirectIds ? kNone : FindFar(id);
  }
  // Gives `id`, which has no slot, the next one.
  uint32_t Add(uint64_t id);
  uint32_t size() const { return static_cast<uint32_t>(ids_.size()); }
  void Clear() {
    direct_.clear();
    ids_.clear();
  }

 private:
  static constexpr uint64_t kDirectIds = uint64_t{1} << 20;
  uint32_t FindFar(uint64_t id) const;

  std::vector<uint32_t> direct_;  // id -> slot for ids below kDirectIds; kNone if unseen
  std::vector<uint64_t> ids_;     // slot -> id
};

}  // namespace internal

// Resumable form of AnalyzeTrace. The analysis is a strict left fold over the event stream, so
// feeding events [0, n) and then [n, end) through one analyzer yields exactly the findings of a
// single full-trace pass. The explorer exploits this the same way it reuses trace-hash prefixes:
// under prefix-grouped exploration it folds the shared prefix once per branch, then copies the
// analyzer per leaf and feeds only the suffix — O(suffix) analysis to match O(suffix) replay.
//
// The state is a plain value of flat tables: threads and objects get dense slots, every vector
// clock (each thread's, and those a monitor release, a CV signal or an access summary saves)
// is a row of one matrix with a column per thread slot, and locksets live in pooled arrays.
// Copy-assignment, Reset and Feed therefore allocate nothing once the tables have grown to a
// run's size. A moved-from analyzer is empty.
class TraceAnalyzer {
 public:
  TraceAnalyzer() = default;
  TraceAnalyzer(const TraceAnalyzer&) = default;
  TraceAnalyzer& operator=(const TraceAnalyzer&) = default;
  TraceAnalyzer(TraceAnalyzer&& other) noexcept;
  TraceAnalyzer& operator=(TraceAnalyzer&& other) noexcept;

  void Feed(const trace::Event& e);
  // The findings of the events fed so far; the fold may go on afterwards.
  std::vector<Finding> Finish() const;
  // Back to the empty fold, keeping every table's capacity.
  void Reset();

 private:
  static constexpr uint32_t kNone = internal::IdSlots::kNone;

  struct Thread {
    uint32_t clock = kNone;   // its clock row
    uint32_t held_begin = 0;  // its lockset: sorted monitor ids at held[held_begin, +held_size)
    uint32_t held_size = 0;
    uint32_t held_capacity = 0;
    // The broadcast that woke it, while the thread has neither re-waited nor left the monitor
    // it re-entered (home_monitor, 0 until seen).
    bool woken = false;
    uint32_t group = 0;
    trace::ObjectId cv = 0;
    trace::ObjectId home_monitor = 0;
  };
  struct Object {
    uint32_t release = kNone;  // clock row: its last monitor exit
    uint32_t signal = kNone;   // clock row: its last notify or broadcast
    uint32_t cell = kNone;     // index in cells
    uint32_t cv = kNone;       // index in cvs
    // Its broadcast groups with wakeups still to attribute, oldest first (Group::next).
    uint32_t pending_head = kNone;
    uint32_t pending_tail = kNone;
  };
  // One kept access summary: first and latest per (thread, kind, lockset), at most
  // kMaxAccessSummaries per cell.
  struct Access {
    uint32_t thread;  // slot
    trace::ThreadId tid;
    bool is_write;
    uint32_t locks_begin;  // its lockset at access_locks[locks_begin, +locks_size)
    uint32_t locks_size;
    uint32_t clock;  // clock row
    trace::Usec time;
    uint32_t next;  // the cell's next access, in access order
  };
  struct Cell {
    trace::ObjectId id;
    uint32_t first;
    uint32_t last;
    uint32_t size;
  };
  struct Cv {
    trace::ObjectId id;
    uint32_t object;  // slot
    int64_t waits_started = 0;
    int64_t timeouts = 0;
    int64_t notified = 0;
    int64_t notifies = 0;       // NOTIFY ops issued
    int64_t notifies_woke = 0;  // NOTIFY ops that woke someone
    trace::Usec last_time = 0;
  };
  struct Group {
    trace::ObjectId cv;
    trace::Usec time;
    uint64_t woken;
    uint64_t unassigned;  // kCvNotified events still to attribute to this broadcast
    uint64_t left_without_rewait;
    uint32_t next;  // the CV's next pending group
  };
  // Every member, so that a move can leave an empty one behind.
  struct State {
    internal::IdSlots thread_ids;
    internal::IdSlots object_ids;
    std::vector<Thread> threads;  // by thread slot
    std::vector<Object> objects;  // by object slot
    // The clock matrix: `width` entries per row (the thread slots, rounded up), 0 = never
    // ticked; a row's entries past its size are zero.
    uint32_t width = 0;
    std::vector<uint64_t> clocks;
    std::vector<uint32_t> clock_sizes;  // per row
    std::vector<trace::ObjectId> held;
    std::vector<trace::ObjectId> access_locks;
    std::vector<Cell> cells;  // in first-touch order
    std::vector<Access> accesses;
    std::vector<Cv> cvs;  // sorted by id
    std::vector<Group> groups;
  };

  uint32_t ThreadSlot(trace::ThreadId tid) {
    const uint32_t slot = s_.thread_ids.Find(tid);
    return slot != kNone ? slot : AddThread(tid);
  }
  uint32_t ObjectSlot(trace::ObjectId id) {
    const uint32_t slot = s_.object_ids.Find(id);
    return slot != kNone ? slot : AddObject(id);
  }
  uint32_t AddThread(trace::ThreadId tid);
  uint32_t AddObject(trace::ObjectId id);
  uint32_t CvOf(trace::ObjectId id);
  uint32_t CellOf(trace::ObjectId id);
  uint64_t* Row(uint32_t row) { return s_.clocks.data() + size_t{row} * s_.width; }
  const uint64_t* Row(uint32_t row) const { return s_.clocks.data() + size_t{row} * s_.width; }
  void Tick(uint32_t thread) {
    const uint32_t row = s_.threads[thread].clock;
    ++Row(row)[thread];
    s_.clock_sizes[row] = std::max(s_.clock_sizes[row], thread + 1);
  }
  uint32_t NewRow();
  // Copies clock row `from` into `*to`, claiming a new row when it is kNone.
  void CopyClock(uint32_t from, uint32_t* to);
  void JoinClock(uint32_t from, uint32_t into);
  void Widen(uint32_t threads);
  void AddHeld(Thread& t, trace::ObjectId monitor);
  void RemoveHeld(Thread& t, trace::ObjectId monitor);
  bool HeldEquals(const Thread& t, const Access& a) const;
  void RecordAccess(uint32_t thread, const trace::Event& e);
  bool Races(const Access& a, const Access& b) const;

  State s_;
};

std::vector<Finding> AnalyzeTrace(const trace::Tracer& tracer);

// Multi-line human-readable report ("" when empty).
std::string RenderFindings(const std::vector<Finding>& findings);

// Everything Explorer::FillOutcome reads from a run's trace, in one pass: each event is decoded
// once and fed to the detector (TraceAnalyzer), the trace hash (TraceHasher) and, with coverage
// on, the campaign's coverage signal (campaign.h):
//
//   * prefix fingerprints: the running trace hash after every kCoverageStride events, plus the
//     final hash (TracePrefixHashes);
//   * edge keys, stable 64-bit names for which interleaving structures the trace exercised,
//     independent of *when* they happened:
//       - monitor handoff edges — (monitor, previous owner -> next owner) per kMlEnter, the
//         lockset-style "who followed whom through this lock" relation;
//       - contention edges — (monitor, blocked thread, owner) per kMlContend;
//       - CV rendezvous edges — (cv, outcome) for waits ending by notify vs timeout, and
//         (cv, notifier, #woken>0) per notify/broadcast;
//       - shared-cell access shapes — (cell, thread, read/write, #locks held bucket);
//       - fault firings — (site, magnitude) per kFaultInjected;
//       - watchdog report kinds — (kind) per kWatchdogReport (src/fault/watchdog.cc);
//       - fork failures and poisoned monitors.
//
// Every coverage key is salted with `salt` (the campaign salts per scenario, so identical ids in
// different scenarios never collide), and edge keys are class-tagged so no two classes share a
// key. Ids are per-Runtime and deterministic, so the same behaviour always produces the same
// keys.
//
// A fold is a plain value, resumable like TraceAnalyzer: the checkpoint cursor folds a shared
// prefix once, copies the fold per leaf and feeds only the suffix. Reset, Feed and
// copy-assignment allocate nothing once the fold has seen a run as large.
class TraceFold {
 public:
  static constexpr size_t kCoverageStride = 64;

  // An empty fold; `coverage` turns the coverage signal on.
  void Reset(bool coverage, uint64_t salt);
  // Folds the events of `tracer` past the ones folded so far.
  void Feed(const trace::Tracer& tracer);

  uint64_t hash() const { return hasher_.value(); }
  std::vector<Finding> Findings() const { return analyzer_.Finish(); }
  // Sorted and deduplicated prefix fingerprints and edge keys (empty with coverage off).
  std::vector<uint64_t> Coverage() const;

 private:
  void FeedEdges(const trace::Event& e);
  void AddEdge(uint64_t tag, uint64_t a, uint64_t b, uint64_t c);
  int& LocksHeld(trace::ThreadId tid);

  TraceHasher hasher_;
  TraceAnalyzer analyzer_;
  size_t events_ = 0;
  bool coverage_ = false;
  uint64_t salt_ = 0;
  std::vector<uint64_t> prefixes_;  // unsalted
  std::vector<uint64_t> edges_;
  // Edge state: each monitor's last owner, each thread's count of monitors entered.
  internal::IdSlots monitor_ids_;
  std::vector<trace::ThreadId> last_owner_;
  internal::IdSlots thread_ids_;
  std::vector<int> locks_held_;
};

}  // namespace explore

#endif  // SRC_EXPLORE_DETECTOR_H_
