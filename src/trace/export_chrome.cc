#include "src/trace/export_chrome.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/intervals.h"
#include "src/trace/json.h"

namespace trace {

namespace {

// Synthetic process ids grouping the three track families in the Perfetto UI.
constexpr int kThreadsPid = 1;
constexpr int kProcessorsPid = 2;
constexpr int kMonitorsPid = 3;

std::string DisplayName(const SymbolTable& symbols, uint32_t sym, const char* prefix,
                        uint64_t id) {
  std::string_view name = symbols.Name(sym);
  if (!name.empty()) {
    return std::string(name);
  }
  return std::string(prefix) + std::to_string(id);
}

// One serialized trace event per line, comma-separated. Emitting through a single chokepoint
// keeps the key order fixed, which is what makes golden tests byte-stable.
class Emitter {
 public:
  explicit Emitter(std::ostream& os) : os_(os) {}

  std::ostream& Begin() {
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    os_ << "{";
    return os_;
  }
  void End() { os_ << "}"; }

  void Metadata(int pid, int64_t tid, std::string_view key, std::string_view value) {
    Begin() << "\"name\": \"" << key << "\", \"ph\": \"M\", \"pid\": " << pid;
    if (tid >= 0) {
      os_ << ", \"tid\": " << tid;
    }
    os_ << ", \"args\": {\"name\": ";
    WriteJsonString(os_, value);
    os_ << "}";
    End();
  }

  // Opens a complete ("X") slice; the caller appends `, "args": {...}` via os() then End().
  std::ostream& Slice(std::string_view name, std::string_view cat, Usec ts, Usec dur, int pid,
                      int64_t tid) {
    Begin() << "\"name\": ";
    WriteJsonString(os_, name);
    os_ << ", \"cat\": \"" << cat << "\", \"ph\": \"X\", \"ts\": " << ts << ", \"dur\": " << dur
        << ", \"pid\": " << pid << ", \"tid\": " << tid;
    return os_;
  }

  // Opens a thread-scoped instant ("i") marker; same continuation contract as Slice.
  std::ostream& Instant(std::string_view name, Usec ts, int pid, int64_t tid) {
    Begin() << "\"name\": ";
    WriteJsonString(os_, name);
    os_ << ", \"cat\": \"marker\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " << ts
        << ", \"pid\": " << pid << ", \"tid\": " << tid;
    return os_;
  }

  std::ostream& os() { return os_; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

// Consumes events one at a time: instants are emitted on the spot, state/occupancy/hold
// slices as TimelineBuilder closes them, track-name metadata at Finish (once the full track
// population is known). Perfetto orders by the `ts` field, not array position, so the
// close-time interleaving renders identically to the old batch layout. Construction writes
// the document header; Push events in record order and call Finish exactly once.
class ChromeTraceWriter : public TimelineBuilder::SpanObserver {
 public:
  ChromeTraceWriter(std::ostream& os, const SymbolTable& symbols)
      : out_(os), symbols_(symbols), builder_(this) {
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    out_.Metadata(kThreadsPid, -1, "process_name", "threads");
    out_.Metadata(kProcessorsPid, -1, "process_name", "processors");
    out_.Metadata(kMonitorsPid, -1, "process_name", "monitors");
  }

  void Push(const Event& e) {
    if (e.thread != 0) {
      NoteThread(e.thread, e.thread_sym);
    }
    if (e.type == EventType::kThreadFork) {
      NoteThread(static_cast<ThreadId>(e.object), 0);
    }
    builder_.Feed(e);
    EmitInstant(e);
  }

  void Finish() {
    builder_.Finish();  // closes open spans at the last event's time, via the callbacks below

    // Track names. Threads and processors are ordered by id; monitor tracks were assigned in
    // first-hold order and are emitted in that order.
    for (const auto& [tid, sym] : threads_) {
      out_.Metadata(kThreadsPid, tid, "thread_name", DisplayName(symbols_, sym, "thread-", tid));
    }
    for (uint16_t proc : processors_) {
      out_.Metadata(kProcessorsPid, proc, "thread_name", "cpu-" + std::to_string(proc));
    }
    std::vector<std::pair<int64_t, ObjectId>> tracks;
    for (const auto& [monitor, track] : monitor_track_) {
      tracks.emplace_back(track, monitor);
    }
    std::sort(tracks.begin(), tracks.end());
    for (const auto& [track, monitor] : tracks) {
      out_.Metadata(kMonitorsPid, track, "thread_name",
                    DisplayName(symbols_, monitor_sym_[monitor], "monitor-", monitor));
    }
    out_.os() << "\n]}\n";
  }

  // ---- TimelineBuilder::SpanObserver ----

  void OnInterval(ThreadId thread, const ThreadInterval& iv) override {
    out_.Slice(ThreadPhaseName(iv.phase), "state", iv.begin, iv.end - iv.begin, kThreadsPid,
               thread);
    if (iv.phase == ThreadPhase::kRunning) {
      out_.os() << ", \"args\": {\"processor\": " << iv.processor << "}";
    }
    out_.End();
    if (iv.phase == ThreadPhase::kRunning) {
      // Processor occupancy: the same interval, re-keyed by processor and labelled with the
      // thread that ran.
      processors_.insert(iv.processor);
      out_.Slice(ThreadDisplayName(thread), "run", iv.begin, iv.end - iv.begin, kProcessorsPid,
                 iv.processor);
      out_.os() << ", \"args\": {\"thread\": " << thread << "}";
      out_.End();
    }
  }

  void OnMonitorHold(const MonitorHold& h) override {
    auto [it, fresh] = monitor_track_.emplace(h.monitor, next_monitor_track_);
    if (fresh) {
      ++next_monitor_track_;
      monitor_sym_[h.monitor] = h.monitor_sym;
    }
    out_.Slice(ThreadDisplayName(h.holder), "hold", h.begin, h.end - h.begin, kMonitorsPid,
               it->second);
    out_.os() << ", \"args\": {\"holder\": " << h.holder << "}";
    out_.End();
  }

 private:
  void NoteThread(ThreadId tid, uint32_t sym) {
    auto [it, fresh] = threads_.emplace(tid, sym);
    if (!fresh && it->second == 0 && sym != 0) {
      it->second = sym;
    }
  }

  std::string ThreadDisplayName(ThreadId tid) {
    auto it = threads_.find(tid);
    return DisplayName(symbols_, it != threads_.end() ? it->second : 0, "thread-", tid);
  }

  // Instant markers for the pathologies the paper reads straight off event histories: notify
  // and broadcast fan-out, preemption, YieldButNotToMe (5.2), spurious conflicts (6.1), plus
  // fault-injection and watchdog markers so a failing fault x schedule repro shows its
  // injected faults inline with the schedule that exposed them.
  void EmitInstant(const Event& e) {
    switch (e.type) {
      case EventType::kCvNotify:
      case EventType::kCvBroadcast:
        out_.Instant(e.type == EventType::kCvNotify ? "notify" : "broadcast", e.time_us,
                     kThreadsPid, e.thread);
        out_.os() << ", \"args\": {\"cv\": ";
        WriteJsonString(out_.os(), DisplayName(symbols_, e.object_sym, "cv-", e.object));
        out_.os() << ", \"woken\": " << e.arg << "}";
        out_.End();
        break;
      case EventType::kPreempt:
        // Emitted from the host context (thread = 0); the victim rides in `object`, and the
        // marker belongs on the victim's track.
        out_.Instant("preempt", e.time_us, kThreadsPid, static_cast<int64_t>(e.object));
        out_.End();
        break;
      case EventType::kYieldButNotToMe:
        out_.Instant("yield-but-not-to-me", e.time_us, kThreadsPid, e.thread);
        out_.End();
        break;
      case EventType::kSpuriousConflict:
        out_.Instant("spurious-conflict", e.time_us, kThreadsPid, e.thread);
        out_.os() << ", \"args\": {\"monitor\": ";
        WriteJsonString(out_.os(), DisplayName(symbols_, e.object_sym, "monitor-", e.object));
        out_.os() << "}";
        out_.End();
        break;
      case EventType::kFaultInjected:
        out_.Instant(std::string("fault:") +
                         std::string(FaultSiteName(static_cast<FaultSite>(e.object))),
                     e.time_us, kThreadsPid, e.thread);
        out_.os() << ", \"args\": {\"value\": " << e.arg << "}";
        out_.End();
        break;
      case EventType::kForkFailed:
        out_.Instant("fork-failed", e.time_us, kThreadsPid, e.thread);
        out_.os() << ", \"args\": {\"cause\": " << e.arg << "}";
        out_.End();
        break;
      case EventType::kMonitorPoisoned:
        out_.Instant("monitor-poisoned", e.time_us, kThreadsPid, e.thread);
        out_.os() << ", \"args\": {\"monitor\": ";
        WriteJsonString(out_.os(), DisplayName(symbols_, e.object_sym, "monitor-", e.object));
        out_.os() << "}";
        out_.End();
        break;
      case EventType::kWatchdogReport:
        out_.Instant("watchdog-report", e.time_us, kThreadsPid,
                     static_cast<int64_t>(e.arg));  // arg = first implicated thread
        out_.os() << ", \"args\": {\"kind\": " << e.object << "}";
        out_.End();
        break;
      default:
        break;
    }
  }

  Emitter out_;
  const SymbolTable& symbols_;
  TimelineBuilder builder_;
  std::map<ThreadId, uint32_t> threads_;  // id -> first non-zero name symbol
  std::set<uint16_t> processors_;
  std::map<ObjectId, int64_t> monitor_track_;
  std::map<ObjectId, uint32_t> monitor_sym_;
  int64_t next_monitor_track_ = 1;
};

}  // namespace

void ExportChromeTrace(std::ostream& os, const Tracer& tracer) {
  ChromeTraceWriter writer(os, tracer.symbols());
  for (const Event& e : tracer.view()) {
    writer.Push(e);
  }
  writer.Finish();
}

bool SaveChromeTraceFile(const std::string& path, const Tracer& tracer) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  ExportChromeTrace(file, tracer);
  return file.good();
}

}  // namespace trace
