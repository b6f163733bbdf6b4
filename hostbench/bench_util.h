// Host-clock helpers shared by the benchmark program and its tests: clocks, the quantile rule,
// an optimisation sink, and the span log whose self-time arithmetic splits an op's wall time
// across the layers it called into.

#ifndef HOSTBENCH_BENCH_UTIL_H_
#define HOSTBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

// steady_clock nanoseconds (wall) and CPU seconds of the whole process / the calling thread.
int64_t NowNs();
double ProcessCpuSeconds();
double ThreadCpuSeconds();
// Peak resident set of this process so far, in MB.
double PeakRssMb();

// Host-speed reference: wall ms to sort a fixed 2^18-key array, a memory- and branch-bound
// job that owns no code from src/. On a shared VM the host's speed drifts by 20% and more
// from minute to minute (neighbours contend for caches and memory); the benchmark samples
// this before every pass and scales its times by kReferenceMs / (25th-percentile sample), so
// they read as on a host that sorts the array in kReferenceMs. A change to src/ cannot move
// it.
double ReferenceSortMs();
inline constexpr double kReferenceMs = 20.0;

// Keeps a computed value alive so the compiler cannot drop the call that produced it.
template <typename T>
inline void Sink(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// The q-quantile (0 < q < 1) by the rule Python's statistics.quantiles uses by default
// ("exclusive": position q*(n+1), clamped to the inner pair of samples and interpolated from
// it). q = 0.5 is the ordinary median. One sample returns that sample; none returns 0.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

struct Spread {
  double median = 0;
  double p10 = 0;
  double p90 = 0;
  int reps = 0;
};
Spread SpreadOf(const std::vector<double>& values);

// One timed interval. parent is an index into the same log, or -1 for a root.
struct Span {
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Spans kept in memory and written out once the run ends. A disabled log records nothing and
// hands back -1, so call sites need no branches of their own.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(std::string name, int parent = -1);
  void End(int id);
  // Records an interval measured elsewhere (hook timestamps, profile phase lengths).
  int Add(std::string name, int parent, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Per span: its duration minus the part of its interval that the union of its children
// covers. Children that overlap each other are counted once; parts of a child outside the
// parent are ignored.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace hostbench

#endif  // HOSTBENCH_BENCH_UTIL_H_
