#include "src/trace/tracer.h"

#include <iomanip>
#include <ostream>

namespace trace {

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kThreadFork:
      return "fork";
    case EventType::kThreadStart:
      return "start";
    case EventType::kThreadExit:
      return "exit";
    case EventType::kThreadJoin:
      return "join";
    case EventType::kThreadDetach:
      return "detach";
    case EventType::kSwitch:
      return "switch";
    case EventType::kPreempt:
      return "preempt";
    case EventType::kMlEnter:
      return "ml-enter";
    case EventType::kMlContend:
      return "ml-contend";
    case EventType::kMlExit:
      return "ml-exit";
    case EventType::kCvWait:
      return "cv-wait";
    case EventType::kCvTimeout:
      return "cv-timeout";
    case EventType::kCvNotified:
      return "cv-notified";
    case EventType::kCvNotify:
      return "cv-notify";
    case EventType::kCvBroadcast:
      return "cv-broadcast";
    case EventType::kSpuriousConflict:
      return "spurious-conflict";
    case EventType::kYield:
      return "yield";
    case EventType::kYieldButNotToMe:
      return "yield-but-not-to-me";
    case EventType::kDirectedYield:
      return "directed-yield";
    case EventType::kSetPriority:
      return "set-priority";
    case EventType::kInterrupt:
      return "interrupt";
    case EventType::kTimerFire:
      return "timer-fire";
    case EventType::kSleep:
      return "sleep";
    case EventType::kUser:
      return "user";
    case EventType::kForcedPreempt:
      return "forced-preempt";
    case EventType::kSharedRead:
      return "shared-read";
    case EventType::kSharedWrite:
      return "shared-write";
    case EventType::kRngSeed:
      return "rng-seed";
    case EventType::kForkFailed:
      return "fork-failed";
    case EventType::kFaultInjected:
      return "fault-injected";
    case EventType::kMonitorPoisoned:
      return "monitor-poisoned";
    case EventType::kWatchdogReport:
      return "watchdog-report";
  }
  return "unknown";
}

std::string_view FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kFork:
      return "fork";
    case FaultSite::kStackAcquire:
      return "stack-acquire";
    case FaultSite::kNotifyLost:
      return "notify-lost";
    case FaultSite::kNotifyDup:
      return "notify-dup";
    case FaultSite::kTimerSkew:
      return "timer-skew";
    case FaultSite::kThreadDeath:
      return "thread-death";
    case FaultSite::kXDrop:
      return "x-drop";
    case FaultSite::kXStall:
      return "x-stall";
    case FaultSite::kShardStall:
      return "shard-stall";
    case FaultSite::kAdmissionReject:
      return "admission-reject";
  }
  return "unknown";
}

void Tracer::RecordSlow(const Event& event) {
  internal::Segment* seg = tail_;
  if (seg == nullptr || seg->count == internal::kSegmentCapacity ||
      (seg->count > 0 && static_cast<uint64_t>(event.time_us) -
                                 static_cast<uint64_t>(seg->last_time) >
                             0xffffffffull)) {
    std::unique_ptr<internal::Segment> fresh = NewSegment();
    fresh->Reset(size_);
    seg = tail_ = fresh.get();
    segments_.push_back(std::move(fresh));
  }
  uint32_t dt = 0;
  if (seg->count == 0) {
    seg->base_time = event.time_us;
  } else {
    dt = static_cast<uint32_t>(event.time_us - seg->last_time);
  }
  internal::PackedEvent& r = seg->records[seg->count++];
  r.dt_us = dt;
  r.priority = event.priority;
  r.processor = event.processor;
  r.thread = event.thread;
  const bool wide = (event.object | event.arg) > 0xffffffffull ||
                    ((event.thread_sym | event.object_sym) >> 16) != 0;
  if (wide) {
    r.type_flags = static_cast<uint8_t>(event.type) | internal::kWideFlag;
    r.object = static_cast<uint32_t>(seg->wide.size());
    r.arg = 0;
    r.thread_sym = 0;
    r.object_sym = 0;
    seg->wide.push_back(event);
  } else {
    r.type_flags = static_cast<uint8_t>(event.type);
    r.object = static_cast<uint32_t>(event.object);
    r.arg = static_cast<uint32_t>(event.arg);
    r.thread_sym = static_cast<uint16_t>(event.thread_sym);
    r.object_sym = static_cast<uint16_t>(event.object_sym);
  }
  seg->last_time = event.time_us;
  ++size_;
}

std::unique_ptr<internal::Segment> Tracer::NewSegment() {
  if (!freelist_.empty()) {
    std::unique_ptr<internal::Segment> seg = std::move(freelist_.back());
    freelist_.pop_back();
    return seg;
  }
  return std::make_unique<internal::Segment>();
}

EventRange Tracer::view(size_t from) const {
  if (from >= size_) {
    return EventRange();
  }
  // Last segment whose first_index <= from.
  size_t a = 0;
  size_t b = segments_.size();
  while (b - a > 1) {
    size_t mid = a + (b - a) / 2;
    if (segments_[mid]->first_index <= from) {
      a = mid;
    } else {
      b = mid;
    }
  }
  const internal::Segment& seg = *segments_[a];
  const uint32_t pos = static_cast<uint32_t>(from - seg.first_index);
  // dt_us is valid even for wide records, so the prefix sum lands on the previous event's
  // time without decoding the wide table.
  Usec prev = seg.base_time;
  for (uint32_t i = 0; i < pos; ++i) {
    prev += seg.records[i].dt_us;
  }
  EventCursor c;
  c.segments_ = &segments_;
  c.seg_ = a;
  c.pos_ = pos;
  c.index_ = from;
  c.remaining_ = size_ - from;
  c.prev_time_ = prev;
  c.current_ = seg.Decode(pos, prev);
  return EventRange(c);
}

std::vector<Event> Tracer::CopyEvents() const {
  std::vector<Event> out;
  out.reserve(size_);
  for (const Event& e : view()) {
    out.push_back(e);
  }
  return out;
}

void Tracer::TruncateTo(size_t n) {
  if (n >= size_) {
    return;
  }
  while (!segments_.empty() && segments_.back()->first_index >= n) {
    Recycle(std::move(segments_.back()));
    segments_.pop_back();
  }
  size_ = n;
  if (segments_.empty()) {
    tail_ = nullptr;
    return;
  }
  internal::Segment& seg = *segments_.back();
  seg.count = static_cast<uint32_t>(n - seg.first_index);
  Usec t = seg.base_time;
  uint32_t wides = 0;
  for (uint32_t i = 0; i < seg.count; ++i) {
    t += seg.records[i].dt_us;
    if (seg.records[i].type_flags & internal::kWideFlag) {
      ++wides;
    }
  }
  seg.last_time = t;
  seg.wide.resize(wides);
  tail_ = &seg;
}

void Tracer::Clear() {
  for (std::unique_ptr<internal::Segment>& seg : segments_) {
    Recycle(std::move(seg));
  }
  segments_.clear();
  tail_ = nullptr;
  size_ = 0;
}

SegmentArena Tracer::TakeEventBuffer() {
  SegmentArena arena;
  arena.segments = std::move(segments_);
  for (std::unique_ptr<internal::Segment>& seg : freelist_) {
    arena.segments.push_back(std::move(seg));
  }
  segments_.clear();
  freelist_.clear();
  tail_ = nullptr;
  size_ = 0;
  return arena;
}

void Tracer::AdoptEventBuffer(SegmentArena arena) {
  Clear();
  for (std::unique_ptr<internal::Segment>& seg : arena.segments) {
    Recycle(std::move(seg));
  }
}

void Tracer::Dump(std::ostream& os, Usec from_us, Usec to_us, size_t limit) const {
  size_t emitted = 0;
  size_t suppressed = 0;
  for (const Event& e : view()) {
    if (e.time_us < from_us) {
      continue;
    }
    if (e.time_us >= to_us) {
      break;
    }
    if (emitted >= limit) {
      // Keep scanning so the marker can say exactly how much of the window was cut off.
      ++suppressed;
      continue;
    }
    os << std::setw(12) << e.time_us << "us p" << e.processor << " t" << e.thread;
    if (std::string_view name = symbols_.Name(e.thread_sym); !name.empty()) {
      os << "(" << name << ")";
    }
    os << " pri" << static_cast<int>(e.priority) << " " << EventTypeName(e.type);
    if (e.object != 0) {
      os << " obj=" << e.object;
      if (std::string_view name = symbols_.Name(e.object_sym); !name.empty()) {
        os << "(" << name << ")";
      }
    }
    if (e.arg != 0) {
      os << " arg=" << e.arg;
    }
    os << "\n";
    ++emitted;
  }
  if (suppressed > 0) {
    os << "... truncated (" << suppressed << " more events)\n";
  }
}

}  // namespace trace
