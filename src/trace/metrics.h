// Always-on runtime metrics: named counters and log2-bucket histograms.
//
// The tracer answers "what happened, exactly, in order" — at ~40 bytes per event. Production
// runs (the ROADMAP's heavy-traffic north star) need the complementary channel: cheap counters
// that survive with tracing off and summarize a run in O(metrics), not O(events). The hot path
// is one predicted branch plus an integer add; registration (the string lookup) happens once,
// at object-construction time, never per event. The runtime gate is pcr::Config::metrics.

#ifndef SRC_TRACE_METRICS_H_
#define SRC_TRACE_METRICS_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

namespace trace {

// A monotonically growing named count. Stable address for the registry's lifetime, so hot paths
// cache the pointer and never repeat the name lookup.
class Counter {
 public:
  void Add(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// Power-of-two-bucket histogram: bucket i counts samples whose value v satisfies
// floor(log2(v)) == i - 1, i.e. bucket 0 holds v <= 0, bucket 1 holds v == 1, bucket 2 holds
// 2-3, bucket 3 holds 4-7, ... Fixed storage, no allocation on Record.
class Log2Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t value) {
    buckets_[BucketIndex(value)] += 1;
    count_ += 1;
    sum_ += value;
    if (value > max_) {
      max_ = value;
    }
  }

  // Bucket index a value lands in (see class comment for the mapping).
  static int BucketIndex(int64_t value) {
    if (value <= 0) {
      return 0;
    }
    return 64 - __builtin_clzll(static_cast<uint64_t>(value));
  }
  // Smallest value belonging to `bucket` (0 for the v <= 0 bucket).
  static int64_t BucketFloor(int bucket) {
    return bucket <= 0 ? 0 : static_cast<int64_t>(1) << (bucket - 1);
  }

  uint64_t bucket_count(int bucket) const { return buckets_[bucket]; }
  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }

  void Reset() {
    for (uint64_t& b : buckets_) {
      b = 0;
    }
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t max_ = 0;
};

// Name -> metric maps with stable addresses (std::map nodes never move). Lookups happen at
// registration only; the returned pointers are the hot-path handles.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name) { return &Register(counters_, name); }
  Log2Histogram* histogram(std::string_view name) { return &Register(histograms_, name); }

  // Read-only lookups for tests and tools; nullptr when never registered.
  const Counter* FindCounter(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }
  const Log2Histogram* FindHistogram(std::string_view name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  size_t counter_count() const { return counters_.size(); }
  size_t histogram_count() const { return histograms_.size(); }

  // Zeroes every value but keeps registrations (cached pointers stay valid).
  void Reset();

  // Deterministic JSON snapshot (names sorted, stable layout):
  //   {"counters": {"sched.dispatches": 123, ...},
  //    "histograms": {"cv.wait_us.notified": {"count": n, "sum": s, "max": m,
  //                                           "buckets": [c0, c1, ...]}, ...}}
  // Histogram bucket arrays stop at the last non-zero bucket; bucket i covers values in
  // [BucketFloor(i), BucketFloor(i + 1)).
  void WriteJson(std::ostream& os) const;

 private:
  // One tree walk whether or not `name` is new; the key string is built only to insert it.
  template <typename Map>
  static typename Map::mapped_type& Register(Map& map, std::string_view name) {
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name) {
      it = map.emplace_hint(it, std::piecewise_construct, std::forward_as_tuple(name),
                            std::forward_as_tuple());
    }
    return it->second;
  }

  // Heterogeneous comparator so string_view lookups don't allocate.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Log2Histogram, std::less<>> histograms_;
};

// Null-tolerant update helpers: instrumentation sites hold nullptr when metrics are disabled,
// so the fast path is a single predicted branch.
inline void MetricAdd(Counter* counter, int64_t n = 1) {
  if (counter != nullptr) {
    counter->Add(n);
  }
}

inline void MetricRecord(Log2Histogram* histogram, int64_t value) {
  if (histogram != nullptr) {
    histogram->Record(value);
  }
}

}  // namespace trace

#endif  // SRC_TRACE_METRICS_H_
