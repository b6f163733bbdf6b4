#include "hostbench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <utility>

namespace hostbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it would report the
  // launching process's peak whenever that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double ReferenceSortMs() {
  std::vector<uint64_t> keys(1 << 18);
  uint64_t x = 0x2545f4914f6cdd1dull;
  for (uint64_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }
  const int64_t t0 = NowNs();
  std::sort(keys.begin(), keys.end());
  const int64_t t1 = NowNs();
  Sink(keys[keys.size() / 2]);
  return static_cast<double>(t1 - t0) / 1e6;
}

double Quantile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  if (n == 1) {
    return values[0];
  }
  const double h = q * static_cast<double>(n + 1);
  const size_t j = std::clamp<size_t>(static_cast<size_t>(std::floor(h)), 1, n - 1);
  const double delta = h - static_cast<double>(j);
  return values[j - 1] + (values[j] - values[j - 1]) * delta;
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

Spread SpreadOf(const std::vector<double>& values) {
  Spread s;
  s.median = Median(values);
  s.p10 = Quantile(values, 0.1);
  s.p90 = Quantile(values, 0.9);
  s.reps = static_cast<int>(values.size());
  return s;
}

int SpanLog::Begin(std::string name, int parent) {
  if (!enabled_) {
    return -1;
  }
  int64_t now = NowNs();
  return Add(std::move(name), parent, now, now);
}

void SpanLog::End(int id) {
  if (id >= 0) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
}

int SpanLog::Add(std::string name, int parent, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{std::move(name), parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& child : spans) {
    if (child.parent < 0) {
      continue;
    }
    const Span& parent = spans[static_cast<size_t>(child.parent)];
    int64_t lo = std::max(child.start_ns, parent.start_ns);
    int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) {
      covered[static_cast<size_t>(child.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    int64_t union_ns = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [lo, hi] : parts) {
      int64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
      }
      reach = std::max(reach, hi);
    }
    self[i] = std::max<int64_t>(spans[i].end_ns - spans[i].start_ns, 0) - union_ns;
  }
  return self;
}

}  // namespace hostbench
