#include "src/fault/watchdog.h"

#include <algorithm>

#include "src/pcr/errors.h"
#include "src/trace/metrics.h"

namespace fault {

using pcr::Tcb;
using pcr::ThreadId;
using pcr::ThreadState;
using pcr::Usec;

std::string_view ReportKindName(ReportKind kind) {
  switch (kind) {
    case ReportKind::kDeadlock:
      return "deadlock";
    case ReportKind::kStarvation:
      return "starvation";
    case ReportKind::kMissingNotify:
      return "missing-notify";
    case ReportKind::kBacklogGrowth:
      return "backlog-growth";
  }
  return "unknown";
}

Watchdog::Watchdog(WatchdogOptions options) : options_(std::move(options)) {}

void Watchdog::Start(pcr::Runtime& rt) {
  if (daemon_tid_ != pcr::kNoThread) {
    throw pcr::UsageError("fault: watchdog already started");
  }
  m_reports_ = rt.scheduler().MetricCounter("watchdog.reports");
  m_deadlocks_ = rt.scheduler().MetricCounter("watchdog.deadlocks");
  m_starvations_ = rt.scheduler().MetricCounter("watchdog.starvations");
  m_missing_notifies_ = rt.scheduler().MetricCounter("watchdog.missing_notifies");
  m_backlogs_ = rt.scheduler().MetricCounter("watchdog.backlogs");
  pcr::ForkOptions fork_options;
  fork_options.name = "watchdog";
  fork_options.priority = options_.priority;
  // The daemon dies with the runtime: at shutdown Sleep throws ThreadKilled and the fiber
  // unwinds out of the loop, or, under a checkpoint walk, the fiber is discarded where it sleeps.
  // Its frame owns no heap, so neither way leaks.
  daemon_tid_ = rt.ForkDetached(
      [this, &rt] {
        for (;;) {
          rt.scheduler().Sleep(options_.period);
          Scan(rt);
        }
      },
      std::move(fork_options));
}

void Watchdog::WatchCondition(pcr::Condition* cv) { watched_.push_back(cv); }

void Watchdog::WatchQueue(std::string name, std::function<size_t()> depth) {
  WatchedQueue queue;
  queue.name = std::move(name);
  queue.depth = std::move(depth);
  watched_queues_.push_back(std::move(queue));
}

void Watchdog::Scan(pcr::Runtime& rt) {
  ++scans_;
  if (options_.detect_deadlock) {
    ScanDeadlocks(rt);
  }
  if (options_.detect_starvation) {
    ScanStarvation(rt);
  }
  if (options_.detect_missing_notify) {
    ScanMissingNotify(rt);
  }
  if (options_.detect_backlog) {
    ScanBacklog(rt);
  }
}

void Watchdog::ScanDeadlocks(pcr::Runtime& rt) {
  pcr::Scheduler& s = rt.scheduler();
  const int n = s.thread_count();
  for (ThreadId start = 1; start <= static_cast<ThreadId>(n); ++start) {
    // Follow blocked -> monitor -> owner edges until the chain leaves the blocked-on-monitor
    // world (no cycle through `start`) or revisits a member (cycle = that member onward).
    std::vector<ThreadId> chain;
    ThreadId cursor = start;
    bool cycle = false;
    while (cursor != pcr::kNoThread) {
      auto pos = std::find(chain.begin(), chain.end(), cursor);
      if (pos != chain.end()) {
        chain.erase(chain.begin(), pos);
        cycle = true;
        break;
      }
      const Tcb* c = s.FindThread(cursor);
      ThreadId owner = c == nullptr ? pcr::kNoThread : s.BlockedOnOwner(*c);
      if (owner == pcr::kNoThread) {
        break;
      }
      chain.push_back(cursor);
      cursor = owner;
    }
    if (!cycle) {
      continue;
    }
    std::vector<ThreadId> key = chain;
    std::sort(key.begin(), key.end());
    if (!reported_cycles_.insert(std::move(key)).second) {
      continue;  // this cycle was already reported
    }
    WatchdogReport report;
    report.kind = ReportKind::kDeadlock;
    report.threads = chain;
    report.detail = "wait-for cycle:";
    for (ThreadId tid : chain) {
      report.detail += ' ' + s.FindThread(tid)->name;
    }
    Report(rt, std::move(report));
  }
}

void Watchdog::ScanStarvation(pcr::Runtime& rt) {
  pcr::Scheduler& s = rt.scheduler();
  const Usec now = s.now();
  const Usec threshold = static_cast<Usec>(options_.starvation_quanta) * s.config().quantum;
  const int n = s.thread_count();
  for (ThreadId tid = 1; tid <= static_cast<ThreadId>(n); ++tid) {
    if (tid == daemon_tid_) {
      continue;
    }
    const Tcb* t = s.FindThread(tid);
    if (t == nullptr || t->state != ThreadState::kReady || t->ready_since < 0 ||
        now - t->ready_since < threshold) {
      continue;
    }
    // One report per starvation episode: ready_since only changes when the thread is pushed
    // ready again, so an episode already reported stays quiet until the thread actually runs.
    auto it = reported_starts_.find(tid);
    if (it != reported_starts_.end() && it->second == t->ready_since) {
      continue;
    }
    reported_starts_[tid] = t->ready_since;
    WatchdogReport report;
    report.kind = ReportKind::kStarvation;
    report.threads.push_back(tid);
    report.detail = "thread " + t->name + " runnable for " +
                    std::to_string((now - t->ready_since) / s.config().quantum) +
                    " quanta without dispatch (priority " + std::to_string(t->priority) + ")";
    Report(rt, std::move(report));
  }
}

void Watchdog::ScanMissingNotify(pcr::Runtime& rt) {
  for (pcr::Condition* cv : watched_) {
    if (reported_cvs_.count(cv) != 0) {
      continue;
    }
    if (!cv->waiters().empty() && cv->notified_exits() == 0 &&
        cv->timeout_exits() >= options_.missing_notify_min_timeouts) {
      reported_cvs_.insert(cv);
      WatchdogReport report;
      report.kind = ReportKind::kMissingNotify;
      report.detail = "condition " + cv->name() + ": " + std::to_string(cv->timeout_exits()) +
                      " waits exited by timeout, none by notify, waiters still queued";
      Report(rt, std::move(report));
    }
  }
}

void Watchdog::ScanBacklog(pcr::Runtime& rt) {
  for (WatchedQueue& queue : watched_queues_) {
    size_t depth = queue.depth();
    if (depth > queue.last_depth) {
      ++queue.growth_streak;
    } else {
      queue.growth_streak = 0;
      if (depth < queue.last_depth) {
        // The queue drained (somebody served or shed it): a later regrowth is a new episode
        // worth a fresh report.
        queue.reported = false;
      }
    }
    queue.last_depth = depth;
    if (queue.growth_streak >= options_.backlog_scans && !queue.reported) {
      queue.reported = true;
      WatchdogReport report;
      report.kind = ReportKind::kBacklogGrowth;
      report.detail = "queue " + queue.name + " grew for " +
                      std::to_string(queue.growth_streak) +
                      " consecutive scans (depth " + std::to_string(depth) + ")";
      Report(rt, std::move(report));
    }
  }
}

void Watchdog::Report(pcr::Runtime& rt, WatchdogReport report) {
  report.time = rt.now();
  rt.scheduler().Emit(trace::EventType::kWatchdogReport,
                      static_cast<pcr::ObjectId>(report.kind),
                      report.threads.empty() ? 0 : report.threads.front());
  trace::MetricAdd(m_reports_);
  switch (report.kind) {
    case ReportKind::kDeadlock:
      trace::MetricAdd(m_deadlocks_);
      break;
    case ReportKind::kStarvation:
      trace::MetricAdd(m_starvations_);
      break;
    case ReportKind::kMissingNotify:
      trace::MetricAdd(m_missing_notifies_);
      break;
    case ReportKind::kBacklogGrowth:
      trace::MetricAdd(m_backlogs_);
      break;
  }
  reports_.push_back(std::move(report));
  if (options_.on_report) {
    options_.on_report(reports_.back());
  }
  if (options_.recover) {
    options_.recover(rt, reports_.back());
  }
}

}  // namespace fault
