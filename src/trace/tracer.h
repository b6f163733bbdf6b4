// Segmented in-memory event log.
//
// The tracer is the runtime's only measurement channel, and it keeps every event of the run:
// the paper reads Tables 1-3 off complete event histories, and so does every post-run
// analysis here. Events are recorded into fixed-size recycled segments of 24-byte packed
// records (delta-encoded times, narrowed ids) instead of one unbounded vector of 40-byte
// Events: the hot path is a handful of stores into the tail segment, and segment allocations
// are reused through a freelist (and donatable across runs via Take/AdoptEventBuffer, which
// the explorer uses to recycle arenas between schedules). Checkpoint restore
// (src/pcr/checkpoint.cc) rewinds the log with TruncateTo.
//
// Consumers iterate decoded Events through the cursor API (view(), view(from)); the packed
// encoding is an internal detail. Statistics (stats.h) are computed post-hoc over a
// [begin, end) window so that benchmarks can exclude warm-up.

#ifndef SRC_TRACE_TRACER_H_
#define SRC_TRACE_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "src/trace/event.h"
#include "src/trace/symbol.h"

namespace trace {

namespace internal {

// Flag bit in PackedEvent::type_flags: the record did not fit the narrow encoding and the full
// Event is stored in the segment's wide table, indexed by the packed object field.
inline constexpr uint8_t kWideFlag = 0x80;
static_assert(static_cast<uint8_t>(EventType::kWatchdogReport) < kWideFlag,
              "EventType must fit beside the wide flag");

// Events per segment: 1024 * 24 B ~= 24 KiB of records, matching the old tracer's initial
// capacity so small runs still pay exactly one block allocation.
inline constexpr size_t kSegmentCapacity = 1024;

// 24-byte packed record. Times are delta-encoded against the previous record in the segment
// (the first record's dt_us is 0 and its time is the segment's base_time); ids are narrowed to
// the widths real runs use. Records that cannot narrow — a 64-bit object/arg (kRngSeed carries
// the full seed) or a symbol id past 16 bits — escape to the segment's wide table.
struct PackedEvent {
  uint32_t dt_us = 0;
  uint8_t type_flags = 0;  // EventType, plus kWideFlag
  uint8_t priority = 0;
  uint16_t processor = 0;
  uint32_t thread = 0;
  uint32_t object = 0;  // narrowed ObjectId, or the wide-table index when kWideFlag is set
  uint32_t arg = 0;
  uint16_t thread_sym = 0;
  uint16_t object_sym = 0;
};
static_assert(sizeof(PackedEvent) == 24, "packed record layout");

// One fixed-size chunk of the log. Segments are sealed (and a new one opened) when full or
// when a time delta does not fit 32 bits — event times are only per-processor monotone, so a
// hand-built trace can step backwards globally; a reset of base_time absorbs any jump.
struct Segment {
  Usec base_time = 0;      // time of records[0]
  Usec last_time = 0;      // time of records[count - 1]
  size_t first_index = 0;  // global index of records[0]
  uint32_t count = 0;
  std::vector<Event> wide;  // full records for events that do not pack (rare)
  PackedEvent records[kSegmentCapacity];

  void Reset(size_t first) {
    base_time = 0;
    last_time = 0;
    first_index = first;
    count = 0;
    wide.clear();
  }

  // Decodes records[i]. `prev_time` is the decoded time of records[i - 1] (base_time for
  // i == 0; dt_us is 0 there, so the first record decodes to base_time exactly).
  Event Decode(uint32_t i, Usec prev_time) const {
    const PackedEvent& r = records[i];
    if (r.type_flags & kWideFlag) {
      return wide[r.object];
    }
    Event e;
    e.time_us = prev_time + r.dt_us;
    e.type = static_cast<EventType>(r.type_flags);
    e.priority = r.priority;
    e.processor = r.processor;
    e.thread = r.thread;
    e.object = r.object;
    e.arg = r.arg;
    e.thread_sym = r.thread_sym;
    e.object_sym = r.object_sym;
    return e;
  }
};

using SegmentList = std::vector<std::unique_ptr<Segment>>;

}  // namespace internal

// Forward cursor over decoded events. Dereferencing yields the reassembled Event; index() is
// the event's position in the log.
class EventCursor {
 public:
  EventCursor() = default;  // the end sentinel

  const Event& operator*() const { return current_; }
  const Event* operator->() const { return &current_; }
  size_t index() const { return index_; }

  EventCursor& operator++() {
    Advance();
    return *this;
  }
  bool operator==(const EventCursor& other) const { return remaining_ == other.remaining_; }
  bool operator!=(const EventCursor& other) const { return remaining_ != other.remaining_; }

 private:
  friend class Tracer;
  friend class EventRange;

  void Advance() {
    if (--remaining_ == 0) {
      return;
    }
    const internal::SegmentList& segments = *segments_;
    prev_time_ = current_.time_us;
    if (++pos_ == segments[seg_]->count) {
      ++seg_;
      pos_ = 0;
      prev_time_ = segments[seg_]->base_time;
    }
    ++index_;
    current_ = segments[seg_]->Decode(pos_, prev_time_);
  }

  const internal::SegmentList* segments_ = nullptr;
  size_t seg_ = 0;
  uint32_t pos_ = 0;
  size_t remaining_ = 0;  // events left including the current one; 0 == end
  size_t index_ = 0;
  Usec prev_time_ = 0;
  Event current_;
};

// Range over [from, size()) returned by Tracer::view; supports range-for.
class EventRange {
 public:
  EventRange() = default;
  explicit EventRange(EventCursor begin) : begin_(begin) {}
  EventCursor begin() const { return begin_; }
  EventCursor end() const { return EventCursor(); }
  size_t size() const { return begin_.remaining_; }
  bool empty() const { return size() == 0; }

 private:
  EventCursor begin_;
};

// A detached pile of segment allocations, handed around by Take/AdoptEventBuffer so harnesses
// that build one Tracer per run (the explorer runs tens of thousands of schedules) can recycle
// capacity. Only allocations travel, never event data.
struct SegmentArena {
  internal::SegmentList segments;
};

class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(const Event& event) {
    internal::Segment* seg = tail_;
    if (seg == nullptr) {
      RecordSlow(event);
      return;
    }
    // One unsigned compare catches both a backwards step (huge after the cast) and a forward
    // jump past 32 bits; either seals the segment in the slow path.
    uint64_t dt =
        static_cast<uint64_t>(event.time_us) - static_cast<uint64_t>(seg->last_time);
    if (seg->count == internal::kSegmentCapacity || dt > 0xffffffffull ||
        (event.object | event.arg) > 0xffffffffull ||
        ((event.thread_sym | event.object_sym) >> 16) != 0) {
      RecordSlow(event);
      return;
    }
    internal::PackedEvent& r = seg->records[seg->count++];
    r.dt_us = static_cast<uint32_t>(dt);
    r.type_flags = static_cast<uint8_t>(event.type);
    r.priority = event.priority;
    r.processor = event.processor;
    r.thread = event.thread;
    r.object = static_cast<uint32_t>(event.object);
    r.arg = static_cast<uint32_t>(event.arg);
    r.thread_sym = static_cast<uint16_t>(event.thread_sym);
    r.object_sym = static_cast<uint16_t>(event.object_sym);
    seg->last_time = event.time_us;
    ++size_;
  }

  // Events in the log (the next event's index).
  size_t size() const { return size_; }
  // Time of the most recent event; 0 when the log is empty.
  Usec last_time() const { return tail_ != nullptr ? tail_->last_time : 0; }

  // ---- Iteration ----

  // All events, in record order.
  EventRange view() const { return view(0); }
  // Events with index >= from. Locating the start is a binary search over segments plus a
  // decode of at most one segment prefix.
  EventRange view(size_t from) const;
  // Materializes the log as a contiguous vector, for random-access consumers.
  std::vector<Event> CopyEvents() const;

  // ---- Rewind / reset ----

  // Drops every event at index >= n (checkpoint restore rewinds the log to the snapshot
  // point; whole segments past n are recycled, the one containing n is trimmed in place).
  // An `n` at or past size() leaves the log as it is.
  void TruncateTo(size_t n);

  // Drops all events, keeping the symbol table: the runtime caches interned ids (in Tcbs,
  // monitors, CVs), so symbols must stay valid across a mid-run Clear. Segment allocations are
  // kept on the freelist.
  void Clear();

  // Capacity recycling across runs: Take hands every segment allocation (live and free) to
  // the caller, leaving the log empty; Adopt installs donated allocations on the freelist and
  // empties the log (allocations travel, never data). Recycled and fresh tracers are
  // observationally identical.
  SegmentArena TakeEventBuffer();
  void AdoptEventBuffer(SegmentArena arena);

  // Interned thread/object names referenced by Event::thread_sym / object_sym.
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  // Writes a human-readable dump of events in [from_us, to_us) to `os`, at most `limit` lines.
  // Intended for debugging "100 millisecond event histories" the way the authors did.
  void Dump(std::ostream& os, Usec from_us, Usec to_us, size_t limit = 1000) const;

 private:
  // Slow half of Record: rolls to a fresh segment when the tail is missing, full, or the time
  // delta does not fit, and handles wide records. Out of line to keep the hot path small.
  void RecordSlow(const Event& event);
  std::unique_ptr<internal::Segment> NewSegment();
  void Recycle(std::unique_ptr<internal::Segment> seg) {
    freelist_.push_back(std::move(seg));
  }

  internal::SegmentList segments_;   // the log, oldest first
  internal::SegmentList freelist_;   // recycled allocations
  internal::Segment* tail_ = nullptr;  // == segments_.back(); never empty outside RecordSlow
  size_t size_ = 0;
  SymbolTable symbols_;
};

}  // namespace trace

#endif  // SRC_TRACE_TRACER_H_
