// Observability overhead: what tracing and metrics cost on the event-record hot path.
//
// The metrics layer's contract (src/trace/metrics.h) is that instrumentation is one predicted
// branch plus an integer add per event — cheap enough to leave on in every run. This bench
// holds it to that: a fixed monitor-and-yield workload (every iteration crosses several Emit
// sites) runs under three configs — tracing+metrics, tracing only, and everything off — and
// the run exits nonzero if enabling metrics adds more than 10% on top of tracing alone, or if
// tracing itself adds more than kMaxTracingOverhead on top of running dark.
//
//   bench_trace_overhead             # table and verdicts; no options
//
// One workload run takes a few milliseconds, too short to time against host noise. So a
// sample is kRunsPerSample back-to-back runs, after one untimed warm-up sample per config; each
// of kRepetitions repetitions takes one sample of every config in turn, so host drift hits
// the three alike; and each overhead is the median over repetitions of that repetition's
// ratio. The per-config seconds are medians too.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"

namespace {

constexpr int kThreads = 4;
constexpr int kIterations = 5000;
constexpr int kRunsPerSample = 10;
constexpr int kRepetitions = 7;
constexpr double kMaxMetricsOverhead = 0.10;
// End-to-end cost of the segmented trace log vs. running dark. The packed 24-byte encoding
// landed this at ~0.04-0.15 on the reference host (down from ~0.34 with the flat vector);
// the gate should ratchet further toward 0.05 as the hot path tightens.
constexpr double kMaxTracingOverhead = 0.10;

struct Measurement {
  const char* name;
  bool tracing;
  bool metrics;
  std::vector<double> samples;  // seconds per workload run, one per repetition
  double seconds = 0;           // median of samples
  size_t events = 0;            // recorded trace events (0 with tracing off)
  double events_per_sec = 0;
};

// One full workload run; every loop iteration emits monitor-enter/exit, yield and switch
// events, so wall time here is dominated by the paths the observability layer instruments.
double RunOnce(bool tracing, bool metrics, size_t* events_out) {
  pcr::Config config;
  config.trace_events = tracing;
  config.metrics = metrics;
  const auto t0 = std::chrono::steady_clock::now();
  pcr::Runtime rt(config);
  pcr::MonitorLock mu(rt.scheduler(), "mu");
  for (int t = 0; t < kThreads; ++t) {
    rt.ForkDetached([&] {
      for (int i = 0; i < kIterations; ++i) {
        {
          pcr::MonitorGuard guard(mu);
          pcr::thisthread::Compute(5);
        }
        pcr::thisthread::Yield();
      }
    });
  }
  rt.RunUntilQuiescent(600 * pcr::kUsecPerSec);
  const auto t1 = std::chrono::steady_clock::now();
  *events_out = rt.tracer().size();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Seconds per workload run, averaged over kRunsPerSample back-to-back runs.
double Sample(Measurement& m) {
  double total = 0;
  for (int i = 0; i < kRunsPerSample; ++i) {
    total += RunOnce(m.tracing, m.metrics, &m.events);
  }
  return total / kRunsPerSample;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Median over repetitions of slower/faster - 1, paired within each repetition.
double MedianOverhead(const Measurement& slower, const Measurement& faster) {
  std::vector<double> ratios;
  for (size_t r = 0; r < slower.samples.size(); ++r) {
    ratios.push_back(slower.samples[r] / faster.samples[r] - 1.0);
  }
  return Median(ratios);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "bench_trace_overhead: unknown argument '%s'\n"
                 "usage: bench_trace_overhead\n",
                 argv[1]);
    return 2;
  }

  Measurement full{"tracing+metrics", true, true};
  Measurement trace_only{"tracing", true, false};
  Measurement off{"off", false, false};
  Measurement* rows[] = {&full, &trace_only, &off};
  for (Measurement* m : rows) {
    Sample(*m);  // warm-up, untimed
  }
  for (int r = 0; r < kRepetitions; ++r) {
    for (Measurement* m : rows) {
      m->samples.push_back(Sample(*m));
    }
  }
  // Events/sec is computed against the traced event count even for the tracing-off config, so
  // the three rows stay comparable (the same number of events *happened*; they just were not
  // recorded).
  const size_t events = full.events;
  for (Measurement* m : rows) {
    m->seconds = Median(m->samples);
    m->events_per_sec = m->seconds > 0 ? static_cast<double>(events) / m->seconds : 0;
  }

  const double metrics_overhead = MedianOverhead(full, trace_only);
  const double tracing_overhead = MedianOverhead(trace_only, off);
  const bool metrics_ok = metrics_overhead <= kMaxMetricsOverhead;
  const bool tracing_ok = tracing_overhead <= kMaxTracingOverhead;
  const bool pass = metrics_ok && tracing_ok;

  std::printf("median of %d repetitions x %d runs per config\n", kRepetitions, kRunsPerSample);
  for (const Measurement* m : rows) {
    std::printf("%-16s %8.4fs  %9.0f events/s\n", m->name, m->seconds, m->events_per_sec);
  }
  std::printf("events per run: %zu\n", events);
  std::printf("metrics overhead on top of tracing: %+.1f%% (limit %.0f%%) -> %s\n",
              metrics_overhead * 100, kMaxMetricsOverhead * 100, metrics_ok ? "OK" : "TOO SLOW");
  std::printf("tracing overhead on top of nothing: %+.1f%% (limit %.0f%%) -> %s\n",
              tracing_overhead * 100, kMaxTracingOverhead * 100, tracing_ok ? "OK" : "TOO SLOW");

  return pass ? 0 : 1;
}
