#include "src/analysis/profile.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>

namespace analysis {

namespace {

int64_t Traffic(const ThreadProfile& profile) { return profile.ml_enters + profile.cv_waits; }

}  // namespace

ProfileSummary ProfileThreads(const trace::Tracer& tracer, trace::Usec window_begin,
                              trace::Usec window_end) {
  if (window_end <= window_begin) {
    window_end = tracer.last_time();
  }
  std::map<trace::ThreadId, ThreadProfile> by_thread;
  std::map<uint16_t, std::pair<trace::ThreadId, trace::Usec>> running;  // per processor

  auto close_run = [&](uint16_t processor, trace::Usec until) {
    auto it = running.find(processor);
    if (it == running.end() || it->second.first == 0) {
      return;
    }
    trace::Usec from = std::max(it->second.second, window_begin);
    trace::Usec to = std::min(until, window_end);
    if (to > from) {
      by_thread[it->second.first].cpu_us += to - from;
    }
  };

  for (const trace::Event& e : tracer.view()) {
    if (e.time_us >= window_end) {
      break;
    }
    if (e.type == trace::EventType::kSwitch) {
      close_run(e.processor, e.time_us);
      running[e.processor] = {e.thread, e.time_us};
      continue;
    }
    if (e.time_us < window_begin) {
      continue;
    }
    switch (e.type) {
      case trace::EventType::kMlEnter:
        ++by_thread[e.thread].ml_enters;
        break;
      case trace::EventType::kCvTimeout:
      case trace::EventType::kCvNotified:
        ++by_thread[e.thread].cv_waits;
        break;
      case trace::EventType::kThreadFork:
        ++by_thread[e.thread].forks;
        break;
      default:
        break;
    }
  }
  for (auto& [processor, run] : running) {
    close_run(processor, window_end);
  }

  ProfileSummary summary;
  for (auto& [tid, profile] : by_thread) {
    if (tid == 0) {
      continue;
    }
    profile.thread = tid;
    summary.threads.push_back(profile);
  }
  std::sort(summary.threads.begin(), summary.threads.end(),
            [](const ThreadProfile& a, const ThreadProfile& b) {
              return Traffic(a) > Traffic(b);
            });
  return summary;
}

int ProfileSummary::ThreadsCarryingTraffic(double fraction) const {
  int64_t total = 0;
  for (const ThreadProfile& t : threads) {
    total += Traffic(t);
  }
  if (total == 0) {
    return 0;
  }
  int64_t accumulated = 0;
  int count = 0;
  for (const ThreadProfile& t : threads) {
    accumulated += Traffic(t);
    ++count;
    if (static_cast<double>(accumulated) >= fraction * static_cast<double>(total)) {
      break;
    }
  }
  return count;
}

double ProfileSummary::DominantTrafficShare() const {
  int64_t total = 0;
  for (const ThreadProfile& t : threads) {
    total += Traffic(t);
  }
  if (total == 0 || threads.empty()) {
    return 0.0;
  }
  return static_cast<double>(Traffic(threads.front())) / static_cast<double>(total);
}

void PrintThreadProfile(std::ostream& os, const ProfileSummary& profile, int top_n) {
  os << std::left << std::setw(10) << "thread" << std::right << std::setw(12) << "cpu(ms)"
     << std::setw(12) << "ml-enters" << std::setw(10) << "cv-waits" << std::setw(8) << "forks"
     << "\n";
  for (int i = 0; i < 52; ++i) {
    os << '-';
  }
  os << "\n";
  int printed = 0;
  for (const ThreadProfile& t : profile.threads) {
    if (printed++ >= top_n) {
      break;
    }
    os << std::left << std::setw(10) << ('t' + std::to_string(t.thread)) << std::right
       << std::setw(12) << t.cpu_us / 1000 << std::setw(12) << t.ml_enters << std::setw(10)
       << t.cv_waits << std::setw(8) << t.forks << "\n";
  }
  os << "(" << profile.threads.size() << " threads total; "
     << profile.ThreadsCarryingTraffic(0.8) << " of them carry 80% of the monitor/CV traffic, "
     << profile.ThreadsCarryingTraffic(0.9) << " carry 90%; the busiest thread carries "
     << static_cast<int>(profile.DominantTrafficShare() * 100) << "%)\n";
}

}  // namespace analysis
