#include "src/explore/detector.h"

#include <algorithm>
#include <charconv>
#include <type_traits>
#include <unordered_map>
#include <utility>

namespace explore {

namespace {

using trace::Event;
using trace::EventType;
using trace::ObjectId;
using trace::ThreadId;
using trace::Usec;

// Minimum completed (all-timeout) waits before a CV is called timeout driven.
constexpr int kTimeoutDrivenMinWaits = 3;
// Minimum no-op notifies before a CV is called a missed rendezvous.
constexpr int kNotifyNoWaiterMin = 3;
// Per-cell cap on distinct (thread, lockset, kind) access summaries kept for the race check.
constexpr uint32_t kMaxAccessSummaries = 64;
// Clock rows start this wide and double: a re-stride moves every row.
constexpr uint32_t kMinClockWidth = 8;

// Finding details are built by appending, integers through std::to_chars.
void Append(std::string* out, std::string_view text) { out->append(text); }
template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
void Append(std::string* out, Int value) {
  char digits[24];
  const std::to_chars_result end = std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, end.ptr);
}
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  (Append(&out, parts), ...);
  return out;
}

// Moves the rows of `rows` from `from` entries each to `to` > `from`, zero-filling the new
// columns. Back to front, so no row is overwritten before it moved.
void Restride(std::vector<uint64_t>* rows, uint32_t from, uint32_t to) {
  const size_t n = from == 0 ? 0 : rows->size() / from;
  rows->resize(n * to);
  for (size_t r = n; r-- > 0;) {
    const auto src = rows->begin() + static_cast<ptrdiff_t>(r * from);
    const auto dst = rows->begin() + static_cast<ptrdiff_t>(r * to);
    std::copy_backward(src, src + from, dst + from);
    std::fill(dst + from, dst + to, 0);
  }
}

}  // namespace

namespace internal {

uint32_t IdSlots::Add(uint64_t id) {
  const uint32_t slot = size();
  if (id < kDirectIds) {
    if (id >= direct_.size()) {
      direct_.resize(id + 1, kNone);
    }
    direct_[id] = slot;
  }
  ids_.push_back(id);
  return slot;
}

uint32_t IdSlots::FindFar(uint64_t id) const {
  for (uint32_t slot = 0; slot < ids_.size(); ++slot) {
    if (ids_[slot] == id) {
      return slot;
    }
  }
  return kNone;
}

}  // namespace internal

std::string_view FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kUnprotectedSharedAccess:
      return "unprotected-shared-access";
    case FindingKind::kWaitNotInLoop:
      return "wait-not-in-loop";
    case FindingKind::kTimeoutDrivenCv:
      return "timeout-driven-cv";
    case FindingKind::kNotifyWithoutWaiter:
      return "notify-without-waiter";
  }
  return "unknown";
}

TraceAnalyzer::TraceAnalyzer(TraceAnalyzer&& other) noexcept
    : s_(std::exchange(other.s_, State{})) {}

TraceAnalyzer& TraceAnalyzer::operator=(TraceAnalyzer&& other) noexcept {
  s_ = std::exchange(other.s_, State{});
  return *this;
}

void TraceAnalyzer::Reset() {
  s_.thread_ids.Clear();
  s_.object_ids.Clear();
  s_.threads.clear();
  s_.objects.clear();
  s_.width = 0;
  s_.clocks.clear();
  s_.clock_sizes.clear();
  s_.held.clear();
  s_.access_locks.clear();
  s_.cells.clear();
  s_.accesses.clear();
  s_.cvs.clear();
  s_.groups.clear();
}

uint32_t TraceAnalyzer::AddThread(ThreadId tid) {
  const uint32_t slot = s_.thread_ids.Add(tid);
  if (slot >= s_.width) {
    Widen(slot + 1);
  }
  s_.threads.emplace_back().clock = NewRow();
  return slot;
}

uint32_t TraceAnalyzer::AddObject(ObjectId id) {
  s_.objects.emplace_back();
  return s_.object_ids.Add(id);
}

uint32_t TraceAnalyzer::CvOf(ObjectId id) {
  const uint32_t object = ObjectSlot(id);
  if (s_.objects[object].cv == kNone) {
    // Kept sorted by id, the order Finish reports them in; a new CV is rare.
    const auto at = std::upper_bound(s_.cvs.begin(), s_.cvs.end(), id,
                                     [](ObjectId v, const Cv& cv) { return v < cv.id; });
    const auto index = static_cast<uint32_t>(at - s_.cvs.begin());
    s_.cvs.insert(at, Cv{id, object});
    for (uint32_t i = index; i < s_.cvs.size(); ++i) {
      s_.objects[s_.cvs[i].object].cv = i;
    }
  }
  return s_.objects[object].cv;
}

uint32_t TraceAnalyzer::CellOf(ObjectId id) {
  const uint32_t object = ObjectSlot(id);
  if (s_.objects[object].cell == kNone) {
    s_.objects[object].cell = static_cast<uint32_t>(s_.cells.size());
    s_.cells.push_back(Cell{id, kNone, kNone, 0});
  }
  return s_.objects[object].cell;
}

void TraceAnalyzer::Widen(uint32_t threads) {
  uint32_t width = std::max(s_.width * 2, kMinClockWidth);
  while (width < threads) {
    width *= 2;
  }
  Restride(&s_.clocks, s_.width, width);
  s_.width = width;
}

uint32_t TraceAnalyzer::NewRow() {
  s_.clocks.resize(s_.clocks.size() + s_.width);
  s_.clock_sizes.push_back(0);
  return static_cast<uint32_t>(s_.clock_sizes.size() - 1);
}

// A row's entries past its size are zero, so a copy or join touches only the entries its
// clock has ticked, as a clock sized to the threads it has seen would.
void TraceAnalyzer::CopyClock(uint32_t from, uint32_t* to) {
  if (*to == kNone) {
    *to = NewRow();
  } else if (*to == from) {
    return;
  }
  const uint32_t size = s_.clock_sizes[from];
  uint64_t* row = Row(*to);
  std::copy_n(Row(from), size, row);
  if (s_.clock_sizes[*to] > size) {
    std::fill(row + size, row + s_.clock_sizes[*to], 0);
  }
  s_.clock_sizes[*to] = size;
}

void TraceAnalyzer::JoinClock(uint32_t from, uint32_t into) {
  const uint32_t size = s_.clock_sizes[from];
  const uint64_t* source = Row(from);
  uint64_t* row = Row(into);
  for (uint32_t i = 0; i < size; ++i) {
    row[i] = std::max(row[i], source[i]);
  }
  s_.clock_sizes[into] = std::max(s_.clock_sizes[into], size);
}

void TraceAnalyzer::AddHeld(Thread& t, ObjectId monitor) {
  auto first = s_.held.begin() + t.held_begin;
  auto it = std::lower_bound(first, first + t.held_size, monitor);
  if (it != first + t.held_size && *it == monitor) {
    return;
  }
  if (t.held_size == t.held_capacity) {
    // Out of room: move the lockset to the pool's end with twice the room. The old range
    // stays unused until Reset.
    const auto offset = it - first;
    const auto begin = static_cast<uint32_t>(s_.held.size());
    t.held_capacity = std::max<uint32_t>(4, t.held_capacity * 2);
    s_.held.resize(s_.held.size() + t.held_capacity);
    std::copy_n(s_.held.begin() + t.held_begin, t.held_size, s_.held.begin() + begin);
    t.held_begin = begin;
    first = s_.held.begin() + t.held_begin;
    it = first + offset;
  }
  std::copy_backward(it, first + t.held_size, first + t.held_size + 1);
  *it = monitor;
  ++t.held_size;
}

void TraceAnalyzer::RemoveHeld(Thread& t, ObjectId monitor) {
  const auto first = s_.held.begin() + t.held_begin;
  const auto last = first + t.held_size;
  const auto it = std::lower_bound(first, last, monitor);
  if (it != last && *it == monitor) {
    std::copy(it + 1, last, it);
    --t.held_size;
  }
}

bool TraceAnalyzer::HeldEquals(const Thread& t, const Access& a) const {
  return t.held_size == a.locks_size &&
         std::equal(s_.held.begin() + t.held_begin, s_.held.begin() + t.held_begin + t.held_size,
                    s_.access_locks.begin() + a.locks_begin);
}

void TraceAnalyzer::RecordAccess(uint32_t thread, const Event& e) {
  const bool is_write = e.type == EventType::kSharedWrite;
  const uint32_t cell_index = CellOf(e.object);
  const Thread& t = s_.threads[thread];
  // Dedup by (thread, kind, lockset), keeping the first and the latest access per key: the
  // first catches races against earlier accesses, the latest keeps the clock fresh for races
  // against later ones. Without this, spin-loop reads would blow up the pass.
  uint32_t latest = kNone;
  int matches = 0;
  for (uint32_t i = s_.cells[cell_index].first; i != kNone; i = s_.accesses[i].next) {
    const Access& a = s_.accesses[i];
    if (a.thread == thread && a.is_write == is_write && HeldEquals(t, a)) {
      latest = i;
      ++matches;
    }
  }
  if (matches >= 2) {
    Access& a = s_.accesses[latest];  // refresh the latest slot; its lockset is the same
    CopyClock(t.clock, &a.clock);
    a.time = e.time_us;
    return;
  }
  Cell& cell = s_.cells[cell_index];
  if (cell.size >= kMaxAccessSummaries) {
    return;
  }
  const auto index = static_cast<uint32_t>(s_.accesses.size());
  Access a{thread, e.thread, is_write, static_cast<uint32_t>(s_.access_locks.size()),
           t.held_size, kNone, e.time_us, kNone};
  s_.access_locks.insert(s_.access_locks.end(), s_.held.begin() + t.held_begin,
                         s_.held.begin() + t.held_begin + t.held_size);
  CopyClock(t.clock, &a.clock);
  s_.accesses.push_back(a);
  if (cell.last == kNone) {
    cell.first = index;
  } else {
    s_.accesses[cell.last].next = index;
  }
  cell.last = index;
  ++cell.size;
}

void TraceAnalyzer::Feed(const Event& e) {
  const ThreadId tid = e.thread;
  switch (e.type) {
    case EventType::kThreadFork: {
      // The child starts with everything the parent has done so far.
      const uint32_t parent = ThreadSlot(tid);
      Tick(parent);
      const uint32_t child = ThreadSlot(static_cast<ThreadId>(e.object));
      CopyClock(s_.threads[parent].clock, &s_.threads[child].clock);
      Tick(child);
      break;
    }
    case EventType::kThreadJoin: {
      // Everything the joined thread did is now ordered before the joiner's future.
      const uint32_t joiner = ThreadSlot(tid);
      const uint32_t joined = s_.thread_ids.Find(static_cast<ThreadId>(e.object));
      if (joined != kNone) {
        JoinClock(s_.threads[joined].clock, s_.threads[joiner].clock);
      }
      Tick(joiner);
      break;
    }
    case EventType::kMlEnter: {
      const uint32_t thread = ThreadSlot(tid);
      AddHeld(s_.threads[thread], e.object);
      const uint32_t object = s_.object_ids.Find(e.object);
      if (object != kNone && s_.objects[object].release != kNone) {
        JoinClock(s_.objects[object].release, s_.threads[thread].clock);
      }
      Tick(thread);
      Thread& t = s_.threads[thread];
      if (t.woken && t.home_monitor == 0) {
        t.home_monitor = e.object;  // the re-acquire after a CV wakeup
      }
      break;
    }
    case EventType::kMlExit: {
      const uint32_t thread = ThreadSlot(tid);
      RemoveHeld(s_.threads[thread], e.object);
      Tick(thread);
      const uint32_t object = ObjectSlot(e.object);
      CopyClock(s_.threads[thread].clock, &s_.objects[object].release);
      Thread& t = s_.threads[thread];
      if (t.woken && t.home_monitor == e.object) {
        // Left the monitor without re-WAITing: proceeded on a once-checked predicate.
        ++s_.groups[t.group].left_without_rewait;
        t.woken = false;
      }
      break;
    }
    case EventType::kCvWait: {
      Cv& cv = s_.cvs[CvOf(e.object)];
      ++cv.waits_started;
      cv.last_time = e.time_us;
      const uint32_t thread = ThreadSlot(tid);
      Tick(thread);
      Thread& t = s_.threads[thread];
      if (t.woken && t.cv == e.object) {
        t.woken = false;  // re-checked and re-waited: the loop convention in action
      }
      break;
    }
    case EventType::kCvTimeout: {
      Cv& cv = s_.cvs[CvOf(e.object)];
      ++cv.timeouts;
      cv.last_time = e.time_us;
      Tick(ThreadSlot(tid));
      break;
    }
    case EventType::kCvNotified: {
      Cv& cv = s_.cvs[CvOf(e.object)];
      ++cv.notified;
      cv.last_time = e.time_us;
      const uint32_t thread = ThreadSlot(tid);
      Object& o = s_.objects[cv.object];
      if (o.signal != kNone) {
        JoinClock(o.signal, s_.threads[thread].clock);  // the notifier's past is ordered before us
      }
      Tick(thread);
      if (o.pending_head != kNone) {
        const uint32_t g = o.pending_head;
        if (--s_.groups[g].unassigned == 0) {
          o.pending_head = s_.groups[g].next;
          if (o.pending_head == kNone) {
            o.pending_tail = kNone;
          }
        }
        Thread& t = s_.threads[thread];
        t.woken = true;
        t.group = g;
        t.cv = e.object;
        t.home_monitor = 0;
      }
      break;
    }
    case EventType::kCvNotify:
    case EventType::kCvBroadcast: {
      Cv& cv = s_.cvs[CvOf(e.object)];
      ++cv.notifies;
      if (e.arg > 0) {
        ++cv.notifies_woke;
      }
      cv.last_time = e.time_us;
      const uint32_t thread = ThreadSlot(tid);
      Tick(thread);
      Object& o = s_.objects[cv.object];
      CopyClock(s_.threads[thread].clock, &o.signal);
      if (e.type == EventType::kCvBroadcast && e.arg >= 2) {
        const auto g = static_cast<uint32_t>(s_.groups.size());
        s_.groups.push_back(Group{e.object, e.time_us, e.arg, e.arg, 0, kNone});
        if (o.pending_tail == kNone) {
          o.pending_head = g;
        } else {
          s_.groups[o.pending_tail].next = g;
        }
        o.pending_tail = g;
      }
      break;
    }
    case EventType::kSharedRead:
    case EventType::kSharedWrite: {
      if (tid == 0) {
        break;  // host-context setup accesses are not schedulable
      }
      const uint32_t thread = ThreadSlot(tid);
      Tick(thread);
      RecordAccess(thread, e);
      break;
    }
    default:
      if (tid != 0) {
        Tick(ThreadSlot(tid));
      }
      break;
  }
}

// Unordered, lock-disjoint, and at least one side writes. An access happens before a later one
// when the later clock has seen the earlier one's own entry; a zero own entry (never ticked) is
// degenerate and counts as ordered.
bool TraceAnalyzer::Races(const Access& a, const Access& b) const {
  if (a.thread == b.thread || (!a.is_write && !b.is_write)) {
    return false;
  }
  const ObjectId* la = s_.access_locks.data() + a.locks_begin;
  const ObjectId* lb = s_.access_locks.data() + b.locks_begin;
  for (uint32_t i = 0, j = 0; i < a.locks_size && j < b.locks_size;) {
    if (la[i] == lb[j]) {
      return false;
    }
    la[i] < lb[j] ? ++i : ++j;
  }
  const uint64_t* ca = Row(a.clock);
  const uint64_t* cb = Row(b.clock);
  const bool a_before_b = ca[a.thread] == 0 || cb[a.thread] >= ca[a.thread];
  const bool b_before_a = cb[b.thread] == 0 || ca[b.thread] >= cb[b.thread];
  return !a_before_b && !b_before_a;
}

std::vector<Finding> TraceAnalyzer::Finish() const {
  std::vector<Finding> findings;

  // Race check: the first unordered, lock-disjoint, read-write or write-write pair per cell.
  for (const Cell& cell : s_.cells) {
    bool reported = false;
    for (uint32_t i = cell.first; i != kNone && !reported; i = s_.accesses[i].next) {
      for (uint32_t j = s_.accesses[i].next; j != kNone; j = s_.accesses[j].next) {
        const Access& a = s_.accesses[i];
        const Access& b = s_.accesses[j];
        if (!Races(a, b)) {
          continue;
        }
        findings.push_back(Finding{
            FindingKind::kUnprotectedSharedAccess, cell.id, a.tid, b.tid, b.time,
            Cat("cell ", cell.id, ": ", a.is_write ? "write" : "read", " by thread ", a.tid,
                " at ", a.time, "us races with ", b.is_write ? "write" : "read", " by thread ",
                b.tid, " at ", b.time, "us (no common lock, no happens-before order)")});
        reported = true;
        break;
      }
    }
  }
  if (findings.size() >= 2) {
    // Races are listed in the iteration order of the std::unordered_map the cells were once
    // kept in, and the first finding names a failure (SameFailure, the campaign's failure
    // keys). That order is a function of the insertion sequence, so replay it.
    std::unordered_map<ObjectId, size_t> order;
    for (const Cell& cell : s_.cells) {
      order.emplace(cell.id, 0);
    }
    std::vector<Finding> races = std::move(findings);
    findings.clear();
    for (const auto& entry : order) {
      for (Finding& race : races) {
        if (race.object == entry.first) {
          findings.push_back(std::move(race));
        }
      }
    }
  }

  for (const Group& group : s_.groups) {
    if (group.left_without_rewait >= 2) {
      findings.push_back(
          Finding{FindingKind::kWaitNotInLoop, group.cv, 0, 0, group.time,
                  Cat("broadcast on cv ", group.cv, " at ", group.time, "us woke ", group.woken,
                      " waiters and ", group.left_without_rewait,
                      " left the monitor without re-checking (WAIT not in a loop?)")});
    }
  }

  for (const Cv& cv : s_.cvs) {
    if (cv.timeouts >= kTimeoutDrivenMinWaits && cv.notified == 0) {
      findings.push_back(Finding{FindingKind::kTimeoutDrivenCv, cv.id, 0, 0, cv.last_time,
                                 Cat("cv ", cv.id, ": all ", cv.timeouts,
                                     " completed waits ended by timeout, none by notify — "
                                     "timeout driven (missing NOTIFY?)")});
    }
    // Requires >= 2 waits: a thread that waits and is never woken hangs in its first WAIT, so
    // repeated waits alongside all-no-op notifies means timeouts are doing the waking — a
    // genuinely missed rendezvous, not a schedule that merely delayed one waiter.
    if (cv.notifies >= kNotifyNoWaiterMin && cv.notifies_woke == 0 && cv.waits_started >= 2) {
      findings.push_back(Finding{FindingKind::kNotifyWithoutWaiter, cv.id, 0, 0, cv.last_time,
                                 Cat("cv ", cv.id, ": ", cv.notifies,
                                     " notifies woke nobody while ", cv.waits_started,
                                     " waits were issued — notify and wait never met")});
    }
  }

  return findings;
}

std::vector<Finding> AnalyzeTrace(const trace::Tracer& tracer) {
  TraceAnalyzer analyzer;
  for (const Event& e : tracer.view()) {
    analyzer.Feed(e);
  }
  return analyzer.Finish();
}

std::string RenderFindings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += Cat("[", FindingKindName(f.kind), "] ", f.detail, "\n");
  }
  return out;
}

// ---------------------------------------------------------------------------------- TraceFold

void TraceFold::Reset(bool coverage, uint64_t salt) {
  hasher_ = TraceHasher();
  analyzer_.Reset();
  events_ = 0;
  coverage_ = coverage;
  salt_ = salt;
  prefixes_.clear();
  edges_.clear();
  monitor_ids_.Clear();
  last_owner_.clear();
  thread_ids_.Clear();
  locks_held_.clear();
}

void TraceFold::Feed(const trace::Tracer& tracer) {
  for (const Event& e : tracer.view(events_)) {
    hasher_.Mix(e);
    analyzer_.Feed(e);
    ++events_;
    if (coverage_) {
      if (events_ % kCoverageStride == 0) {
        prefixes_.push_back(hasher_.value());
      }
      FeedEdges(e);
    }
  }
}

// The FNV-1a of the four words from the salted basis, through TraceHasher's zero-run steps.
void TraceFold::AddEdge(uint64_t tag, uint64_t a, uint64_t b, uint64_t c) {
  TraceHasher key(TraceHasher::kOffsetBasis ^ salt_);
  key.MixWord(tag);
  key.MixWord(a);
  key.MixWord(b);
  key.MixWord(c);
  edges_.push_back(key.value());
}

// A thread's count of monitors entered and not yet exited (never below zero).
int& TraceFold::LocksHeld(ThreadId tid) {
  uint32_t slot = thread_ids_.Find(tid);
  if (slot == internal::IdSlots::kNone) {
    slot = thread_ids_.Add(tid);
    locks_held_.push_back(0);
  }
  return locks_held_[slot];
}

void TraceFold::FeedEdges(const Event& e) {
  switch (e.type) {
    case EventType::kMlEnter: {
      uint32_t monitor = monitor_ids_.Find(e.object);
      if (monitor == internal::IdSlots::kNone) {
        monitor = monitor_ids_.Add(e.object);
        last_owner_.push_back(0);
      }
      AddEdge(1, e.object, last_owner_[monitor], e.thread);
      last_owner_[monitor] = e.thread;
      ++LocksHeld(e.thread);
      break;
    }
    case EventType::kMlExit: {
      int& count = LocksHeld(e.thread);
      count = std::max(0, count - 1);
      break;
    }
    case EventType::kMlContend:
      AddEdge(2, e.object, e.thread, e.arg);
      break;
    case EventType::kCvNotified:
      AddEdge(3, e.object, e.thread, 1);
      break;
    case EventType::kCvTimeout:
      AddEdge(3, e.object, e.thread, 0);
      break;
    case EventType::kCvNotify:
    case EventType::kCvBroadcast:
      AddEdge(4, e.object, e.thread, e.arg > 0 ? 1 : 0);
      break;
    case EventType::kSharedRead:
    case EventType::kSharedWrite: {
      if (e.thread == 0) {
        break;  // host-context setup accesses, same filter as the race check
      }
      const uint64_t is_write = e.type == EventType::kSharedWrite ? 1 : 0;
      const auto locks = static_cast<uint64_t>(std::min(LocksHeld(e.thread), 3));
      AddEdge(5, e.object, e.thread, (is_write << 2) | locks);
      break;
    }
    case EventType::kFaultInjected:
      AddEdge(6, e.object, e.arg, 0);
      break;
    case EventType::kWatchdogReport:
      AddEdge(7, e.object, 0, 0);
      break;
    case EventType::kForkFailed:
      AddEdge(8, e.thread, e.arg, 0);
      break;
    case EventType::kMonitorPoisoned:
      AddEdge(9, e.object, 0, 0);
      break;
    default:
      break;
  }
}

std::vector<uint64_t> TraceFold::Coverage() const {
  std::vector<uint64_t> keys;
  if (!coverage_) {
    return keys;
  }
  const bool partial = events_ % kCoverageStride != 0 || events_ == 0;
  keys.reserve(prefixes_.size() + (partial ? 1 : 0) + edges_.size());
  for (uint64_t h : prefixes_) {
    keys.push_back(h ^ salt_);  // scenario-scope the state fingerprints too
  }
  if (partial) {
    keys.push_back(hasher_.value() ^ salt_);
  }
  keys.insert(keys.end(), edges_.begin(), edges_.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace explore
