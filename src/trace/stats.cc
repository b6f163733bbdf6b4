#include "src/trace/stats.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

namespace trace {

namespace {

// Per-processor run tracking used to turn kSwitch events into execution intervals.
struct ProcessorRun {
  ThreadId thread = 0;
  uint32_t thread_sym = 0;
  uint8_t priority = 0;
  Usec since = 0;
};

// Counts distinct object ids without a tree node per event. Runtime ids are small and dense
// (Scheduler::NextObjectId counts up from 1), so ids below kDenseLimit are marked in a bitmap
// sized to the largest such id seen — at most kDenseLimit bits. Loaded or hand-built traces may
// carry any 64-bit id; the rest are collected and deduplicated once, in Count().
class DistinctIds {
 public:
  void Add(ObjectId id) {
    if (id >= kDenseLimit) {
      sparse_.push_back(id);
      return;
    }
    const size_t word = static_cast<size_t>(id / 64);
    if (word >= dense_.size()) {
      dense_.resize(std::min(kDenseWords, std::max(word + 1, 2 * dense_.size())), 0);
    }
    const uint64_t bit = uint64_t{1} << (id % 64);
    dense_count_ += (dense_[word] & bit) == 0;
    dense_[word] |= bit;
  }

  int64_t Count() {
    std::sort(sparse_.begin(), sparse_.end());
    return dense_count_ + (std::unique(sparse_.begin(), sparse_.end()) - sparse_.begin());
  }

 private:
  static constexpr ObjectId kDenseLimit = ObjectId{1} << 20;  // a 128 KiB bitmap at most
  static constexpr size_t kDenseWords = kDenseLimit / 64;
  std::vector<uint64_t> dense_;
  int64_t dense_count_ = 0;
  std::vector<ObjectId> sparse_;
};

}  // namespace

Summary Summarize(const Tracer& tracer, const StatsOptions& options) {
  Usec begin = options.window_begin;
  Usec end = options.window_end;
  if (end <= begin) {
    end = tracer.size() == 0 ? begin : tracer.last_time();
  }

  Summary s;
  s.window_us = end - begin;
  s.exec_intervals = Histogram(options.interval_bucket_us, options.interval_buckets);

  DistinctIds cvs;
  DistinctIds mls;
  std::map<uint16_t, ProcessorRun> runs;
  std::map<ThreadId, std::pair<Usec, uint32_t>> cpu_by_thread;  // cpu time, name symbol
  int live = 0;

  auto account_run = [&](const ProcessorRun& run, Usec until) {
    Usec from = std::max(run.since, begin);
    Usec to = std::min(until, end);
    if (to <= from) {
      return;
    }
    Usec span = to - from;
    if (run.thread == 0) {
      s.idle_time_us += span;
      return;
    }
    s.busy_time_us += span;
    auto& per_thread = cpu_by_thread[run.thread];
    per_thread.first += span;
    per_thread.second = run.thread_sym;
    if (run.priority < s.cpu_time_by_priority.size()) {
      s.cpu_time_by_priority[run.priority] += span;
    }
    // Execution intervals are measured switch-to-switch; clamping to the window keeps partial
    // boundary runs from polluting the distribution only when the window cut them.
    s.exec_intervals.Add(span);
  };

  for (const Event& e : tracer.view()) {
    if (e.time_us >= end) {
      break;
    }
    bool in_window = e.time_us >= begin;

    switch (e.type) {
      case EventType::kThreadFork:
        ++live;
        if (live > s.max_live_threads) {
          s.max_live_threads = live;
        }
        if (in_window) {
          ++s.forks;
        }
        break;
      case EventType::kThreadExit:
        --live;
        break;
      case EventType::kSwitch: {
        ProcessorRun& run = runs[e.processor];
        account_run(run, e.time_us);
        if (in_window && e.thread != 0) {
          // Switches *to* a thread. A park-to-idle is not a thread switch; the later
          // idle-to-thread dispatch counts as the one switch, matching how the paper's
          // switch rates relate to its wait rates.
          ++s.switches;
        }
        run.thread = e.thread;
        run.thread_sym = e.thread_sym;
        run.priority = e.priority;
        run.since = e.time_us;
        break;
      }
      case EventType::kPreempt:
        if (in_window) {
          ++s.preemptions;
        }
        break;
      case EventType::kMlEnter:
        if (in_window) {
          ++s.ml_enters;
          mls.Add(e.object);
        }
        break;
      case EventType::kMlContend:
        if (in_window) {
          ++s.ml_contentions;
        }
        break;
      case EventType::kCvWait:
        if (in_window) {
          cvs.Add(e.object);
        }
        break;
      case EventType::kCvTimeout:
        if (in_window) {
          ++s.cv_waits;
          ++s.cv_timeouts;
        }
        break;
      case EventType::kCvNotified:
        if (in_window) {
          ++s.cv_waits;
        }
        break;
      case EventType::kCvNotify:
        if (in_window) {
          ++s.notifies;
        }
        break;
      case EventType::kCvBroadcast:
        if (in_window) {
          ++s.broadcasts;
        }
        break;
      case EventType::kSpuriousConflict:
        if (in_window) {
          ++s.spurious_conflicts;
        }
        break;
      case EventType::kYield:
      case EventType::kYieldButNotToMe:
      case EventType::kDirectedYield:
        if (in_window) {
          ++s.yields;
        }
        break;
      case EventType::kInterrupt:
        if (in_window) {
          ++s.interrupts;
        }
        break;
      default:
        break;
    }
  }
  // Close out runs still open at window end.
  for (auto& [proc, run] : runs) {
    account_run(run, end);
  }

  s.distinct_cvs = cvs.Count();
  s.distinct_mls = mls.Count();

  for (const auto& [tid, cpu] : cpu_by_thread) {
    s.busiest_threads.push_back(
        {tid, std::string(tracer.symbols().Name(cpu.second)), cpu.first});
  }
  std::sort(s.busiest_threads.begin(), s.busiest_threads.end(),
            [](const Summary::ThreadTime& a, const Summary::ThreadTime& b) {
              return a.cpu_us != b.cpu_us ? a.cpu_us > b.cpu_us : a.thread < b.thread;
            });
  if (s.busiest_threads.size() > static_cast<size_t>(Summary::kBusiestThreads)) {
    s.busiest_threads.resize(Summary::kBusiestThreads);
  }

  double seconds = static_cast<double>(s.window_us) / 1e6;
  if (seconds > 0) {
    s.forks_per_sec = static_cast<double>(s.forks) / seconds;
    s.switches_per_sec = static_cast<double>(s.switches) / seconds;
    s.waits_per_sec = static_cast<double>(s.cv_waits) / seconds;
    s.ml_enters_per_sec = static_cast<double>(s.ml_enters) / seconds;
  }
  if (s.cv_waits > 0) {
    s.timeout_fraction = static_cast<double>(s.cv_timeouts) / static_cast<double>(s.cv_waits);
  }
  if (s.ml_enters > 0) {
    s.contention_fraction =
        static_cast<double>(s.ml_contentions) / static_cast<double>(s.ml_enters);
  }
  return s;
}

std::string Summary::ToString() const {
  std::ostringstream os;
  os << "window=" << window_us / 1000 << "ms"
     << " forks/s=" << forks_per_sec << " switches/s=" << switches_per_sec
     << " waits/s=" << waits_per_sec << " timeout%=" << timeout_fraction * 100
     << " ml-enters/s=" << ml_enters_per_sec << " contention%=" << contention_fraction * 100
     << " #cv=" << distinct_cvs << " #ml=" << distinct_mls
     << " max-threads=" << max_live_threads;
  return os.str();
}

}  // namespace trace
