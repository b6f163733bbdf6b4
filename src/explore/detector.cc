#include "src/explore/detector.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

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
constexpr size_t kMaxAccessSummaries = 64;

// Dense vector clock: index = thread id, value = logical time, 0 = never ticked. Thread ids
// are small consecutive integers in these traces, so a flat vector turns every clock
// operation (tick, join, compare) into plain indexed loads — the detector runs once per
// explored schedule, which makes this the hottest analysis loop in the repo.
using VectorClock = std::vector<uint64_t>;

void Join(VectorClock* into, const VectorClock& from) {
  if (from.size() > into->size()) {
    into->resize(from.size(), 0);
  }
  for (size_t i = 0; i < from.size(); ++i) {
    (*into)[i] = std::max((*into)[i], from[i]);
  }
}

// True when the access stamped with `vc_a` by `thread_a` happens-before the later access
// stamped with `vc_b`. A zero own-clock means thread_a never ticked — degenerate, treat as
// ordered (entries are >= 1 from their first tick, so 0 is exactly "absent").
bool HappensBefore(ThreadId thread_a, const VectorClock& vc_a, const VectorClock& vc_b) {
  uint64_t own = thread_a < vc_a.size() ? vc_a[thread_a] : 0;
  if (own == 0) {
    return true;
  }
  uint64_t seen = thread_a < vc_b.size() ? vc_b[thread_a] : 0;
  return seen >= own;
}

using Lockset = std::vector<ObjectId>;  // sorted

bool Disjoint(const Lockset& a, const Lockset& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) {
      return false;
    }
    (*ia < *ib) ? ++ia : ++ib;
  }
  return true;
}

struct Access {
  ThreadId thread;
  bool is_write;
  Lockset locks;
  VectorClock vc;
  Usec time;
};

struct CellState {
  std::vector<Access> accesses;  // capped, deduped by (thread, is_write, lockset)
  bool reported = false;
};

struct CvState {
  int64_t waits_started = 0;
  int64_t timeouts = 0;
  int64_t notified = 0;
  int64_t notifies = 0;       // NOTIFY ops issued
  int64_t notifies_woke = 0;  // NOTIFY ops that woke someone
  Usec last_time = 0;
};

struct BroadcastGroup {
  ObjectId cv = 0;
  Usec time = 0;
  uint64_t woken = 0;
  uint64_t unassigned = 0;  // kCvNotified events still to attribute to this broadcast
  uint64_t left_without_rewait = 0;
};

// What a broadcast-woken thread is doing between its kCvNotified and the verdict. Stored in a
// tid-indexed vector; `active` distinguishes a live entry from the default.
struct WokenState {
  size_t group = 0;          // index into groups
  ObjectId cv = 0;
  ObjectId home_monitor = 0;  // first monitor re-entered after the wakeup; 0 until seen
  bool active = false;
};

}  // namespace

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

// The complete fold state of the analysis. Everything is a value type, so the compiler-generated
// copy is exactly the deep copy TraceAnalyzer's copy constructor promises.
struct TraceAnalyzer::State {
  std::vector<VectorClock> clocks;  // tid-indexed
  std::vector<Lockset> held;        // tid-indexed
  std::unordered_map<ObjectId, VectorClock> monitor_release;
  std::unordered_map<ObjectId, VectorClock> cv_signal;
  std::unordered_map<ObjectId, CellState> cells;
  std::map<ObjectId, CvState> cvs;
  std::vector<BroadcastGroup> groups;
  std::unordered_map<ObjectId, std::vector<size_t>> pending_groups;  // cv -> group indices
  std::vector<WokenState> woken;  // tid-indexed

  VectorClock& clock_of(ThreadId tid) {
    if (clocks.size() <= tid) {
      clocks.resize(static_cast<size_t>(tid) + 1);
    }
    return clocks[tid];
  }
  Lockset& held_of(ThreadId tid) {
    if (held.size() <= tid) {
      held.resize(static_cast<size_t>(tid) + 1);
    }
    return held[tid];
  }
  WokenState& woken_of(ThreadId tid) {
    if (woken.size() <= tid) {
      woken.resize(static_cast<size_t>(tid) + 1);
    }
    return woken[tid];
  }
  // A live entry for tid, or nullptr. Never grows the vector: absent means inactive.
  WokenState* woken_find(ThreadId tid) {
    return tid < woken.size() && woken[tid].active ? &woken[tid] : nullptr;
  }
  void tick(ThreadId tid) {
    VectorClock& c = clock_of(tid);
    if (c.size() <= tid) {
      c.resize(static_cast<size_t>(tid) + 1, 0);
    }
    ++c[tid];
  }
};

TraceAnalyzer::TraceAnalyzer() : state_(new State{}) {}
TraceAnalyzer::TraceAnalyzer(const TraceAnalyzer& other) : state_(new State(*other.state_)) {}
TraceAnalyzer& TraceAnalyzer::operator=(const TraceAnalyzer& other) {
  if (this != &other) {
    *state_ = *other.state_;
  }
  return *this;
}
TraceAnalyzer::TraceAnalyzer(TraceAnalyzer&&) noexcept = default;
TraceAnalyzer& TraceAnalyzer::operator=(TraceAnalyzer&&) noexcept = default;
TraceAnalyzer::~TraceAnalyzer() = default;

void TraceAnalyzer::Feed(const Event& e) {
  State& s = *state_;
  ThreadId t = e.thread;
  switch (e.type) {
    case EventType::kThreadFork: {
      // The child starts with everything the parent has done so far.
      auto child = static_cast<ThreadId>(e.object);
      s.tick(t);
      {
        VectorClock parent = s.clock_of(t);  // copy first: clock_of(child) may reallocate
        s.clock_of(child) = std::move(parent);
      }
      s.tick(child);
      break;
    }
    case EventType::kThreadJoin: {
      // Everything the joined thread did is now ordered before the joiner's future.
      auto o = static_cast<ThreadId>(e.object);
      s.clock_of(std::max(t, o));  // one growth, so both references below stay valid
      Join(&s.clocks[t], s.clocks[o]);
      s.tick(t);
      break;
    }
    case EventType::kMlEnter: {
      Lockset& locks = s.held_of(t);
      auto it = std::lower_bound(locks.begin(), locks.end(), e.object);
      if (it == locks.end() || *it != e.object) {
        locks.insert(it, e.object);
      }
      auto release = s.monitor_release.find(e.object);
      if (release != s.monitor_release.end()) {
        Join(&s.clock_of(t), release->second);
      }
      s.tick(t);
      if (WokenState* w = s.woken_find(t); w != nullptr && w->home_monitor == 0) {
        w->home_monitor = e.object;  // the re-acquire after a CV wakeup
      }
      break;
    }
    case EventType::kMlExit: {
      Lockset& locks = s.held_of(t);
      auto it = std::lower_bound(locks.begin(), locks.end(), e.object);
      if (it != locks.end() && *it == e.object) {
        locks.erase(it);
      }
      s.tick(t);
      s.monitor_release[e.object] = s.clocks[t];
      if (WokenState* w = s.woken_find(t); w != nullptr && w->home_monitor == e.object) {
        // Left the monitor without re-WAITing: proceeded on a once-checked predicate.
        ++s.groups[w->group].left_without_rewait;
        w->active = false;
      }
      break;
    }
    case EventType::kCvWait:
      ++s.cvs[e.object].waits_started;
      s.cvs[e.object].last_time = e.time_us;
      s.tick(t);
      if (WokenState* w = s.woken_find(t); w != nullptr && w->cv == e.object) {
        w->active = false;  // re-checked and re-waited: the loop convention in action
      }
      break;
    case EventType::kCvTimeout:
      ++s.cvs[e.object].timeouts;
      s.cvs[e.object].last_time = e.time_us;
      s.tick(t);
      break;
    case EventType::kCvNotified: {
      CvState& cv = s.cvs[e.object];
      ++cv.notified;
      cv.last_time = e.time_us;
      auto signal = s.cv_signal.find(e.object);
      if (signal != s.cv_signal.end()) {
        Join(&s.clock_of(t), signal->second);  // the notifier's past is ordered before us
      }
      s.tick(t);
      auto pending = s.pending_groups.find(e.object);
      if (pending != s.pending_groups.end() && !pending->second.empty()) {
        size_t g = pending->second.front();
        if (--s.groups[g].unassigned == 0) {
          pending->second.erase(pending->second.begin());
        }
        s.woken_of(t) = WokenState{g, e.object, 0, true};
      }
      break;
    }
    case EventType::kCvNotify: {
      CvState& cv = s.cvs[e.object];
      ++cv.notifies;
      if (e.arg > 0) {
        ++cv.notifies_woke;
      }
      cv.last_time = e.time_us;
      s.tick(t);
      s.cv_signal[e.object] = s.clocks[t];
      break;
    }
    case EventType::kCvBroadcast: {
      CvState& cv = s.cvs[e.object];
      ++cv.notifies;
      if (e.arg > 0) {
        ++cv.notifies_woke;
      }
      cv.last_time = e.time_us;
      s.tick(t);
      s.cv_signal[e.object] = s.clocks[t];
      if (e.arg >= 2) {
        s.groups.push_back(BroadcastGroup{e.object, e.time_us, e.arg, e.arg, 0});
        s.pending_groups[e.object].push_back(s.groups.size() - 1);
      }
      break;
    }
    case EventType::kSharedRead:
    case EventType::kSharedWrite: {
      if (t == 0) {
        break;  // host-context setup accesses are not schedulable
      }
      bool is_write = e.type == EventType::kSharedWrite;
      s.tick(t);
      CellState& cell = s.cells[e.object];
      const Lockset& locks = s.held_of(t);
      // Dedup by (thread, kind, lockset), keeping the first and the latest access per key:
      // the first catches races against earlier accesses, the latest keeps the clock fresh
      // for races against later ones. Without this, spin-loop reads would blow up the pass.
      Access* latest = nullptr;
      int matches = 0;
      for (auto it = cell.accesses.rbegin(); it != cell.accesses.rend(); ++it) {
        if (it->thread == t && it->is_write == is_write && it->locks == locks) {
          if (latest == nullptr) {
            latest = &*it;
          }
          ++matches;
        }
      }
      if (matches >= 2) {
        *latest = Access{t, is_write, locks, s.clocks[t], e.time_us};  // refresh latest slot
      } else if (cell.accesses.size() < kMaxAccessSummaries) {
        cell.accesses.push_back(Access{t, is_write, locks, s.clocks[t], e.time_us});
      }
      break;
    }
    default:
      if (t != 0) {
        s.tick(t);
      }
      break;
  }
}

std::vector<Finding> TraceAnalyzer::Finish() {
  State& s = *state_;
  std::vector<Finding> findings;

  // Race check: any unordered, lock-disjoint, read-write or write-write pair per cell.
  for (auto& [cell_id, cell] : s.cells) {
    for (size_t i = 0; i < cell.accesses.size() && !cell.reported; ++i) {
      for (size_t j = i + 1; j < cell.accesses.size(); ++j) {
        const Access& a = cell.accesses[i];
        const Access& b = cell.accesses[j];
        if (a.thread == b.thread || (!a.is_write && !b.is_write) || !Disjoint(a.locks, b.locks)) {
          continue;
        }
        if (HappensBefore(a.thread, a.vc, b.vc) || HappensBefore(b.thread, b.vc, a.vc)) {
          continue;
        }
        std::ostringstream detail;
        detail << "cell " << cell_id << ": " << (a.is_write ? "write" : "read") << " by thread "
               << a.thread << " at " << a.time << "us races with "
               << (b.is_write ? "write" : "read") << " by thread " << b.thread << " at "
               << b.time << "us (no common lock, no happens-before order)";
        findings.push_back(Finding{FindingKind::kUnprotectedSharedAccess, cell_id, a.thread,
                                   b.thread, b.time, detail.str()});
        cell.reported = true;
        break;
      }
    }
  }

  for (const BroadcastGroup& group : s.groups) {
    if (group.left_without_rewait >= 2) {
      std::ostringstream detail;
      detail << "broadcast on cv " << group.cv << " at " << group.time << "us woke "
             << group.woken << " waiters and " << group.left_without_rewait
             << " left the monitor without re-checking (WAIT not in a loop?)";
      findings.push_back(
          Finding{FindingKind::kWaitNotInLoop, group.cv, 0, 0, group.time, detail.str()});
    }
  }

  for (const auto& [cv_id, cv] : s.cvs) {
    if (cv.timeouts >= kTimeoutDrivenMinWaits && cv.notified == 0) {
      std::ostringstream detail;
      detail << "cv " << cv_id << ": all " << cv.timeouts
             << " completed waits ended by timeout, none by notify — timeout driven "
                "(missing NOTIFY?)";
      findings.push_back(
          Finding{FindingKind::kTimeoutDrivenCv, cv_id, 0, 0, cv.last_time, detail.str()});
    }
    // Requires >= 2 waits: a thread that waits and is never woken hangs in its first WAIT, so
    // repeated waits alongside all-no-op notifies means timeouts are doing the waking — a
    // genuinely missed rendezvous, not a schedule that merely delayed one waiter.
    if (cv.notifies >= kNotifyNoWaiterMin && cv.notifies_woke == 0 &&
        cv.waits_started >= 2) {
      std::ostringstream detail;
      detail << "cv " << cv_id << ": " << cv.notifies << " notifies woke nobody while "
             << cv.waits_started << " waits were issued — notify and wait never met";
      findings.push_back(
          Finding{FindingKind::kNotifyWithoutWaiter, cv_id, 0, 0, cv.last_time, detail.str()});
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

std::vector<uint64_t> CollectTraceCoverage(const trace::Tracer& tracer, uint64_t salt) {
  std::vector<uint64_t> keys;
  std::unordered_map<ObjectId, ThreadId> last_owner;
  std::unordered_map<ThreadId, int> locks_held;

  auto mix = [salt](uint64_t tag, uint64_t a, uint64_t b, uint64_t c) {
    uint64_t h = 0xcbf29ce484222325ull ^ salt;
    for (uint64_t v : {tag, a, b, c}) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (byte * 8)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
    return h;
  };

  for (const Event& e : tracer.view()) {
    switch (e.type) {
      case EventType::kMlEnter: {
        ThreadId& prev = last_owner[e.object];
        keys.push_back(mix(1, e.object, prev, e.thread));
        prev = e.thread;
        ++locks_held[e.thread];
        break;
      }
      case EventType::kMlExit: {
        int& held = locks_held[e.thread];
        held = std::max(0, held - 1);
        break;
      }
      case EventType::kMlContend:
        keys.push_back(mix(2, e.object, e.thread, e.arg));
        break;
      case EventType::kCvNotified:
        keys.push_back(mix(3, e.object, e.thread, 1));
        break;
      case EventType::kCvTimeout:
        keys.push_back(mix(3, e.object, e.thread, 0));
        break;
      case EventType::kCvNotify:
      case EventType::kCvBroadcast:
        keys.push_back(mix(4, e.object, e.thread, e.arg > 0 ? 1 : 0));
        break;
      case EventType::kSharedRead:
      case EventType::kSharedWrite: {
        if (e.thread == 0) {
          break;  // host-context setup accesses, same filter as the race check
        }
        uint64_t is_write = e.type == EventType::kSharedWrite ? 1 : 0;
        uint64_t held = static_cast<uint64_t>(std::min(locks_held[e.thread], 3));
        keys.push_back(mix(5, e.object, e.thread, (is_write << 2) | held));
        break;
      }
      case EventType::kFaultInjected:
        keys.push_back(mix(6, e.object, e.arg, 0));
        break;
      case EventType::kWatchdogReport:
        keys.push_back(mix(7, e.object, 0, 0));
        break;
      case EventType::kForkFailed:
        keys.push_back(mix(8, e.thread, e.arg, 0));
        break;
      case EventType::kMonitorPoisoned:
        keys.push_back(mix(9, e.object, 0, 0));
        break;
      default:
        break;
    }
  }

  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::string RenderFindings(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << "[" << FindingKindName(f.kind) << "] " << f.detail << "\n";
  }
  return os.str();
}

}  // namespace explore
