#include "hostbench/suite.h"

#include <string>
#include <utility>
#include <vector>

#include "src/explore/detector.h"
#include "src/explore/hash.h"
#include "src/pcr/condition.h"
#include "src/pcr/fiber.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/trace/genealogy.h"
#include "src/trace/stats.h"

namespace hostbench {

namespace {

constexpr pcr::Usec kForever = 1000000 * pcr::kUsecPerSec;

// Loop lengths of one probe repetition; Smoke() divides them.
struct ProbeSizes {
  int reps = 5;
  int switches = 2000000;
  int computes = 300000;
  int yields = 200000;
  int fork_joins = 20000;
  int constructs = 2000;
  int monitor_ops = 500000;
  int notify_rounds = 100000;
  int record_iterations = 20000;  // per thread, four threads

  static ProbeSizes Smoke() {
    return ProbeSizes{.reps = 3,
                      .switches = 2000,
                      .computes = 2000,
                      .yields = 2000,
                      .fork_joins = 200,
                      .constructs = 20,
                      .monitor_ops = 2000,
                      .notify_rounds = 1000,
                      .record_iterations = 200};
  }
};

pcr::Config QuietConfig() {
  pcr::Config config;
  config.trace_events = false;
  return config;
}

double PerOpNs(int64_t t0, int64_t t1, double ops) {
  return static_cast<double>(t1 - t0) / ops;
}

// Runs `body` once per repetition inside one fiber of an already-built Runtime; body returns
// the ns per operation of that repetition.
template <typename Body>
std::vector<double> InThread(pcr::Runtime& rt, int reps, Body body) {
  std::vector<double> out;
  rt.ForkDetached([&] {
    for (int r = 0; r < reps; ++r) {
      out.push_back(body());
    }
  });
  rt.RunUntilQuiescent(kForever);
  return out;
}

std::vector<double> ProbeFiberSwitch(const ProbeSizes& n) {
  pcr::Fiber fiber(
      [] {
        while (true) {
          pcr::Fiber::Current()->Suspend();
        }
      },
      16 * 1024);
  fiber.Resume();
  std::vector<double> out;
  for (int r = 0; r < n.reps; ++r) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < n.switches; ++i) {
      fiber.Resume();
    }
    out.push_back(PerOpNs(t0, NowNs(), 2.0 * n.switches));  // Resume + Suspend per iteration
  }
  return out;
}

std::vector<double> ProbeCompute(const ProbeSizes& n) {
  pcr::Runtime rt(QuietConfig());
  return InThread(rt, n.reps, [&] {
    const int64_t t0 = NowNs();
    for (int i = 0; i < n.computes; ++i) {
      pcr::thisthread::Compute(1);
    }
    return PerOpNs(t0, NowNs(), n.computes);
  });
}

std::vector<double> ProbeYield(const ProbeSizes& n) {
  pcr::Runtime rt(QuietConfig());
  bool done = false;
  std::vector<double> out;
  rt.ForkDetached([&] {
    while (!done) {
      pcr::thisthread::Yield();
    }
  });
  rt.ForkDetached([&] {
    for (int r = 0; r < n.reps; ++r) {
      const int64_t t0 = NowNs();
      for (int i = 0; i < n.yields; ++i) {
        pcr::thisthread::Yield();
      }
      out.push_back(PerOpNs(t0, NowNs(), 2.0 * n.yields));  // the partner yields once per ours
    }
    done = true;
  });
  rt.RunUntilQuiescent(kForever);
  return out;
}

std::vector<double> ProbeForkJoin(const ProbeSizes& n) {
  pcr::Runtime rt(QuietConfig());
  return InThread(rt, n.reps, [&] {
    const int64_t t0 = NowNs();
    for (int i = 0; i < n.fork_joins; ++i) {
      rt.Join(rt.Fork([] {}));
    }
    return PerOpNs(t0, NowNs(), n.fork_joins) / 1e3;
  });
}

std::vector<double> ProbeConstruct(const ProbeSizes& n) {
  std::vector<double> out;
  for (int r = 0; r < n.reps; ++r) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < n.constructs; ++i) {
      pcr::Runtime rt;
      rt.Shutdown();
      Sink(rt.now());
    }
    out.push_back(PerOpNs(t0, NowNs(), n.constructs) / 1e3);
  }
  return out;
}

std::vector<double> ProbeMonitor(const ProbeSizes& n) {
  pcr::Runtime rt(QuietConfig());
  pcr::MonitorLock lock(rt.scheduler(), "probe");
  return InThread(rt, n.reps, [&] {
    const int64_t t0 = NowNs();
    for (int i = 0; i < n.monitor_ops; ++i) {
      pcr::MonitorGuard guard(lock);
    }
    return PerOpNs(t0, NowNs(), n.monitor_ops);
  });
}

// Ping-pong through two conditions: each round is two NOTIFYs, each waking a waiter that
// re-acquires the monitor.
std::vector<double> ProbeNotifyWake(const ProbeSizes& n) {
  pcr::Runtime rt(QuietConfig());
  pcr::MonitorLock lock(rt.scheduler(), "probe");
  pcr::Condition to_partner(lock, "to_partner");
  pcr::Condition to_prober(lock, "to_prober");
  int turn = 0;  // 1: the partner's move
  bool done = false;
  rt.ForkDetached([&] {
    pcr::MonitorGuard guard(lock);
    while (true) {
      while (turn != 1 && !done) {
        to_partner.Wait();
      }
      if (done) {
        return;
      }
      turn = 0;
      to_prober.Notify();
    }
  });
  std::vector<double> out = InThread(rt, n.reps, [&] {
    pcr::MonitorGuard guard(lock);
    const int64_t t0 = NowNs();
    for (int i = 0; i < n.notify_rounds; ++i) {
      turn = 1;
      to_partner.Notify();
      while (turn != 0) {
        to_prober.Wait();
      }
    }
    return PerOpNs(t0, NowNs(), 2.0 * n.notify_rounds);
  });
  rt.ForkDetached([&] {
    pcr::MonitorGuard guard(lock);
    done = true;
    to_partner.Notify();
  });
  rt.RunUntilQuiescent(kForever);
  return out;
}

// bench_trace_overhead's fixed loop: four threads entering one monitor and yielding. Only
// RunUntilQuiescent is timed; the Runtime and its threads are built first.
double TimeRecordLoop(const pcr::Config& config, int iterations, size_t* events) {
  pcr::Runtime rt(config);
  pcr::MonitorLock mu(rt.scheduler(), "mu");
  for (int t = 0; t < 4; ++t) {
    rt.ForkDetached([&] {
      for (int i = 0; i < iterations; ++i) {
        {
          pcr::MonitorGuard guard(mu);
          pcr::thisthread::Compute(5);
        }
        pcr::thisthread::Yield();
      }
    });
  }
  const int64_t t0 = NowNs();
  rt.RunUntilQuiescent(kForever);
  const int64_t t1 = NowNs();
  *events = rt.tracer().size();
  return static_cast<double>(t1 - t0);
}

// Repetitions alternate the configurations so drift hits them alike.
void ProbeRecordAndMetrics(const ProbeSizes& n, std::vector<double>* record_ns,
                           std::vector<double>* metrics_frac) {
  pcr::Config traced;  // tracing and metrics on: the defaults
  pcr::Config dark = traced;
  dark.trace_events = false;
  pcr::Config no_metrics = traced;
  no_metrics.metrics = false;
  for (int r = 0; r < n.reps; ++r) {
    size_t events = 0;
    size_t unused = 0;
    const double on = TimeRecordLoop(traced, n.record_iterations, &events);
    const double off = TimeRecordLoop(dark, n.record_iterations, &unused);
    const double bare = TimeRecordLoop(no_metrics, n.record_iterations, &unused);
    record_ns->push_back(events > 0 ? (on - off) / static_cast<double>(events) : 0);
    metrics_frac->push_back(bare > 0 ? on / bare - 1.0 : 0);
  }
}

// Per-trace ns per event of the four trace analyses, taken in paper_tables' inspect hook.
struct AnalysisTimes {
  std::vector<double> summarize;
  std::vector<double> genealogy;
  std::vector<double> hash;
  std::vector<double> detector;
};

void TimeAnalyses(pcr::Runtime& rt, AnalysisTimes* times) {
  const trace::Tracer& tracer = rt.tracer();
  const double events = static_cast<double>(tracer.size());
  if (events == 0) {
    return;
  }
  int64_t t0 = NowNs();
  trace::Summary summary = trace::Summarize(tracer);
  int64_t t1 = NowNs();
  Sink(summary.switches);
  trace::GenealogySummary genealogy = trace::AnalyzeGenealogy(tracer);
  int64_t t2 = NowNs();
  Sink(genealogy);
  uint64_t hash = explore::TraceHash(tracer);
  int64_t t3 = NowNs();
  Sink(hash);
  std::vector<explore::Finding> findings = explore::AnalyzeTrace(tracer);
  int64_t t4 = NowNs();
  Sink(findings.size());
  times->summarize.push_back(static_cast<double>(t1 - t0) / events);
  times->genealogy.push_back(static_cast<double>(t2 - t1) / events);
  times->hash.push_back(static_cast<double>(t3 - t2) / events);
  times->detector.push_back(static_cast<double>(t4 - t3) / events);
}

Spread One(double value) { return Spread{value, value, value, 1}; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

class Suite {
 public:
  Suite(SpanLog& spans, SuiteResult* result) : spans_(spans), result_(result) {}

  void Add(std::string name, std::string unit, Spread value) {
    result_->metrics.push_back(LayerMetric{std::move(name), std::move(unit), value});
  }

  // Times `probe` as one span; adds its per-repetition values as metric `name`.
  template <typename Fn>
  void Probe(const char* name, const char* unit, Fn probe) {
    int span = spans_.Begin(std::string("probe.") + name);
    std::vector<double> values = probe();
    spans_.End(span);
    Add(name, unit, SpreadOf(values));
  }

  // One checked pass of `workload` under its own span; returns the pass.
  PassStats Pass(Workload& workload, const std::string& label) {
    int span = spans_.Begin("suite." + label);
    PassStats pass = workload.RunPass(spans_, span);
    spans_.End(span);
    result_->attempted += pass.ops;
    result_->failed += pass.failed;
    return pass;
  }

 private:
  SpanLog& spans_;
  SuiteResult* result_;
};

}  // namespace

SuiteResult RunLayerSuite(uint64_t seed, const Sizes& sizes, bool smoke, SpanLog& spans) {
  const ProbeSizes n = smoke ? ProbeSizes::Smoke() : ProbeSizes{};
  SuiteResult result;
  Suite suite(spans, &result);

  // Layer probes, bottom up.
  suite.Probe("pcr.fiber.switch_ns", "ns", [&] { return ProbeFiberSwitch(n); });
  suite.Probe("pcr.scheduler.compute_ns", "ns", [&] { return ProbeCompute(n); });
  suite.Probe("pcr.scheduler.yield_ns", "ns", [&] { return ProbeYield(n); });
  suite.Probe("pcr.scheduler.fork_join_us", "us", [&] { return ProbeForkJoin(n); });
  suite.Probe("pcr.runtime.construct_us", "us", [&] { return ProbeConstruct(n); });
  suite.Probe("pcr.monitor.enter_exit_ns", "ns", [&] { return ProbeMonitor(n); });
  suite.Probe("pcr.condition.notify_wake_ns", "ns", [&] { return ProbeNotifyWake(n); });
  {
    std::vector<double> record_ns;
    std::vector<double> metrics_frac;
    int span = spans.Begin("probe.trace.tracer.record");
    ProbeRecordAndMetrics(n, &record_ns, &metrics_frac);
    spans.End(span);
    suite.Add("trace.tracer.record_ns", "ns", SpreadOf(record_ns));
    suite.Add("trace.metrics.overhead_frac", "frac", SpreadOf(metrics_frac));
  }

  // paper_tables: switches per scenario run, wall per virtual second, and the trace analyses
  // over each scenario's trace.
  {
    PaperTables tables(seed, sizes);
    AnalysisTimes times;
    tables.extra_inspect = [&times](pcr::Runtime& rt) { TimeAnalyses(rt, &times); };
    PassStats pass = suite.Pass(tables, "paper_tables");
    suite.Add("pcr.fiber.switches_per_op", "count",
              One(Ratio(static_cast<double>(tables.last_fiber_switches), pass.ops)));
    suite.Add("trace.stats.summarize_ns_per_event", "ns", SpreadOf(times.summarize));
    suite.Add("trace.genealogy.ns_per_event", "ns", SpreadOf(times.genealogy));
    suite.Add("explore.hash.ns_per_event", "ns", SpreadOf(times.hash));
    suite.Add("explore.detector.ns_per_event", "ns", SpreadOf(times.detector));
    suite.Add("world.scenario.ms_per_vsec", "ms", One(Ratio(pass.wall_s * 1e3, pass.work)));
  }

  // explore_2k: the ExploreProfile counters, then the same inputs with checkpointing and with
  // DPOR switched off. Each variant is checked against the first pass's outputs.
  {
    ExploreBatch batch(seed, sizes);
    PassStats on = suite.Pass(batch, "explore_2k");
    const explore::ExploreProfile p = batch.last_profile;
    const double schedules = static_cast<double>(batch.last_schedules);
    const double ops = on.ops;
    suite.Add("pcr.stack.pool_hit_frac", "frac",
              One(Ratio(static_cast<double>(p.stack_pool_hits),
                        static_cast<double>(p.stack_acquires))));
    suite.Add("pcr.checkpoint.saves_per_op", "count",
              One(Ratio(static_cast<double>(p.checkpoint_saves), ops)));
    suite.Add("pcr.checkpoint.resumes_per_op", "count",
              One(Ratio(static_cast<double>(p.checkpoint_resumes), ops)));
    suite.Add("pcr.checkpoint.kb_per_save", "KB",
              One(Ratio(static_cast<double>(p.checkpoint_bytes) / 1024.0,
                        static_cast<double>(p.checkpoint_saves))));
    suite.Add("explore.explorer.run_frac", "frac", One(Ratio(p.run_sec, p.total_sec)));
    suite.Add("explore.explorer.detector_frac", "frac", One(Ratio(p.detector_sec, p.total_sec)));
    suite.Add("explore.explorer.executed_frac", "frac",
              One(Ratio(schedules - static_cast<double>(p.pruned_schedules), schedules)));
    suite.Add("explore.dpor.pruned_frac", "frac",
              One(Ratio(static_cast<double>(p.dpor_pruned + p.drain_spliced), schedules)));
    batch.checkpoint = false;
    PassStats no_checkpoint = suite.Pass(batch, "explore_2k.no_checkpoint");
    batch.checkpoint = true;
    batch.dpor = false;
    PassStats no_dpor = suite.Pass(batch, "explore_2k.no_dpor");
    suite.Add("pcr.checkpoint.speedup", "x", One(Ratio(no_checkpoint.wall_s, on.wall_s)));
    suite.Add("explore.dpor.speedup", "x", One(Ratio(no_dpor.wall_s, on.wall_s)));
  }

  // service_sweep: wall per virtual second by paradigm, trace growth and drops.
  {
    ServiceSweep sweep(seed, sizes);
    PassStats pass = suite.Pass(sweep, "service_sweep");
    suite.Add("world.service.serializer.ms_per_vsec", "ms", One(sweep.last_ms_per_vsec[0]));
    suite.Add("world.service.work-queue.ms_per_vsec", "ms", One(sweep.last_ms_per_vsec[1]));
    suite.Add("world.service.pipeline.ms_per_vsec", "ms", One(sweep.last_ms_per_vsec[2]));
    suite.Add("trace.tracer.events_per_op", "count",
              One(Ratio(static_cast<double>(sweep.last_events), pass.ops)));
    for (const NamedValue& v : sweep.VirtualMetrics()) {
      if (v.name == "virt_drop_frac") {
        suite.Add("world.service.drop_frac", "frac", One(v.value));
      }
    }
  }

  // campaign: rounds as the timed workload runs them (one worker), then the pool at two
  // workers, checked against the serial outputs so the corpus must come out identical.
  {
    CampaignBatch campaign(seed, sizes);
    PassStats serial = suite.Pass(campaign, "campaign.workers1");
    suite.Add("explore.campaign.round_ms", "ms",
              One(Ratio(serial.wall_s * 1e3, static_cast<double>(campaign.last_rounds))));
    suite.Add("explore.campaign.admit_frac", "frac",
              One(Ratio(static_cast<double>(campaign.last_corpus_entries), serial.work)));
    campaign.workers = 2;
    PassStats pooled = suite.Pass(campaign, "campaign.workers2");
    suite.Add("explore.pool.speedup", "x", One(Ratio(serial.wall_s, pooled.wall_s)));
    suite.Add("explore.pool.cpu_per_input_us", "us",
              One(Ratio(pooled.cpu_s * 1e6, pooled.work)));
  }
  return result;
}

}  // namespace hostbench
