// hostbench: the repository's host-clock benchmark.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1 [--sha SHA] [--out DIR]
//   hostbench --smoke            # every workload once at minimal size, plus the layer suite
//
// --trace 0 measures the end-to-end metrics with the benchmark's spans off; --trace 1 runs
// the same passes alternately with spans off and on (the span overhead), then the layer suite
// (suite.h), and reports the per-layer metrics. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines above it name every metric with its
// unit, and the ledger rows and span log are also written under --out.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hostbench/bench_util.h"
#include "hostbench/suite.h"
#include "hostbench/workloads.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace hostbench {
namespace {

constexpr int kSetups = 5;     // set-up repetitions; setup_s is their median
constexpr int kMinPasses = 3;  // timed passes run even past the deadline

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string sha = "unknown";
  std::string out = ".bench_out";
};

void Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload NAME --seed N --seconds S --trace 0|1 [--sha SHA] "
               "[--out DIR]\n       hostbench --smoke\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--sha") {
      args->sha = value;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  if (args->smoke) {
    return true;
  }
  const std::vector<std::string>& names = WorkloadNames();
  return std::find(names.begin(), names.end(), args->workload) != names.end() &&
         args->seconds >= 1 && (args->trace == 0 || args->trace == 1);
}

struct Row {
  std::string name;
  std::string unit;
  Spread spread;  // over the repetitions, for the ledger
  double value;   // the reported figure
};

Row MedianRow(std::string name, std::string unit, const std::vector<double>& values) {
  Spread spread = SpreadOf(values);
  return Row{std::move(name), std::move(unit), spread, spread.median};
}

// Prints each row as a readable line and a ledger row, and appends the ledger row to `ledger`.
class Reporter {
 public:
  Reporter(const Args& args, std::FILE* ledger) : args_(args), ledger_(ledger) {}

  void Emit(const std::string& layer, const Row& row) {
    std::printf("%-42s %14.6g %-6s (median %.6g, p10 %.6g, p90 %.6g, reps %d)\n",
                row.name.c_str(), row.value, row.unit.c_str(), row.spread.median, row.spread.p10,
                row.spread.p90, row.spread.reps);
    size_t dot = row.name.rfind('.');
    std::string op = dot == std::string::npos ? row.name : row.name.substr(dot + 1);
    std::string row_layer = dot == std::string::npos ? layer : row.name.substr(0, dot);
    char line[1024];
    std::snprintf(line, sizeof(line),
                  "{\"layer\": \"%s\", \"op\": \"%s\", \"median\": %.17g, \"p10\": %.17g, "
                  "\"p90\": %.17g, \"reps\": %d, \"build_type\": \"%s\", \"sha\": \"%s\", "
                  "\"nproc\": %u, \"unit\": \"%s\", \"workload\": \"%s\", \"seed\": %llu}",
                  row_layer.c_str(), op.c_str(), Finite(row.spread.median),
                  Finite(row.spread.p10), Finite(row.spread.p90), row.spread.reps,
                  HOSTBENCH_BUILD_TYPE, args_.sha.c_str(), std::thread::hardware_concurrency(),
                  row.unit.c_str(), args_.workload.c_str(),
                  static_cast<unsigned long long>(args_.seed));
    std::printf("ledger %s\n", line);
    if (ledger_ != nullptr) {
      std::fprintf(ledger_, "%s\n", line);
    }
  }

  static double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

 private:
  const Args& args_;
  std::FILE* ledger_;
};

std::string ResultJson(int attempted, int failed, const std::vector<Row>& metrics) {
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", Reporter::Finite(metrics[i].value));
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}}";
}

// Self time per span name, busiest first, and the raw spans as JSON under --out.
void ReportSpans(const SpanLog& log, const std::string& path) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  struct Total {
    int count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Total> by_name;
  int64_t all_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    Total& t = by_name[spans[i].name];
    t.count += 1;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
    all_self += self[i];
  }
  std::vector<std::pair<std::string, Total>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_ns > b.second.self_ns; });
  std::printf("%-42s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%");
  for (const auto& [name, t] : rows) {
    std::printf("%-42s %8d %12.3f %12.3f %6.2f%%\n", name.c_str(), t.count, t.total_ns / 1e6,
                t.self_ns / 1e6, all_self > 0 ? 100.0 * t.self_ns / all_self : 0.0);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
    return;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"self_ns\": %lld}",
                 i == 0 ? "" : ",", i, spans[i].name.c_str(), spans[i].parent,
                 static_cast<long long>(spans[i].start_ns - origin),
                 static_cast<long long>(spans[i].end_ns - origin),
                 static_cast<long long>(self[i]));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

const char* ThroughputName(const Workload& w) {
  std::string unit = w.work_unit();
  return unit == "vsec" ? "vsec_per_s" : unit == "sched" ? "sched_per_s" : "inputs_per_s";
}

int RunSmoke() {
  const Sizes sizes = Sizes::Smoke();
  int attempted = 0;
  int failed = 0;
  SpanLog spans(true);
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<Workload> w = MakeWorkload(name, 1, sizes);
    int root = spans.Begin("smoke." + name);
    PassStats pass = w->RunPass(spans, root);
    spans.End(root);
    std::printf("smoke %-14s ops=%d failed=%d %s=%.6g\n", name.c_str(), pass.ops, pass.failed,
                ThroughputName(*w), pass.work / pass.wall_s);
    attempted += pass.ops;
    failed += pass.failed;
  }
  SuiteResult suite = RunLayerSuite(1, sizes, /*smoke=*/true, spans);
  for (const LayerMetric& m : suite.metrics) {
    std::printf("smoke %-42s %.6g %s\n", m.name.c_str(), m.value.median, m.unit.c_str());
  }
  attempted += suite.attempted;
  failed += suite.failed;
  std::printf("smoke: %d ops, %d failed, %zu layer metrics, %zu spans\n", attempted, failed,
              suite.metrics.size(), spans.spans().size());
  return failed == 0 && attempted > 0 && !suite.metrics.empty() ? 0 : 1;
}

int RunBenchmark(const Args& args) {
  const Sizes sizes;
  std::filesystem::create_directories(args.out);
  const std::string stem = args.out + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                           "-trace" + std::to_string(args.trace);
  std::FILE* ledger = std::fopen((stem + ".ledger.jsonl").c_str(), "w");
  Reporter reporter(args, ledger);
  std::printf("hostbench workload=%s seed=%llu seconds=%d trace=%d build_type=%s sha=%s "
              "nproc=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, HOSTBENCH_BUILD_TYPE, args.sha.c_str(),
              std::thread::hardware_concurrency());

  // Set-up: derive the inputs and run one warm-up pass, which also fixes every op's reference
  // output. Repeated; the first workload object is kept for the timed passes.
  SpanLog off(false);
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  int attempted = 0;
  int failed = 0;
  std::vector<double> reference_ms;  // ReferenceSortMs() before every set-up and pass
  for (int k = 0; k < kSetups; ++k) {
    reference_ms.push_back(ReferenceSortMs());
    const int64_t t0 = NowNs();
    std::unique_ptr<Workload> candidate = MakeWorkload(args.workload, args.seed, sizes);
    PassStats warm = candidate->RunPass(off, -1);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    attempted += warm.ops;
    failed += warm.failed;
    if (k == 0) {
      workload = std::move(candidate);
    }
  }

  std::vector<double> rate;
  std::vector<double> cpu_per_work;
  std::vector<double> cpu_per_pass;
  auto timed_pass = [&](SpanLog& log, int parent) {
    reference_ms.push_back(ReferenceSortMs());
    const int64_t t0 = NowNs();
    PassStats pass = workload->RunPass(log, parent);
    const double outer_ns = static_cast<double>(NowNs() - t0);
    attempted += pass.ops;
    failed += pass.failed;
    rate.push_back(pass.work / pass.wall_s);
    cpu_per_work.push_back(pass.cpu_s * 1e6 / pass.work);
    cpu_per_pass.push_back(pass.cpu_s);
    return outer_ns;
  };

  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds) * 1000000000;
  std::vector<Row> metrics;
  SpanLog spans(args.trace == 1);
  if (args.trace == 0) {
    while (static_cast<int>(rate.size()) < kMinPasses || NowNs() < deadline) {
      timed_pass(off, -1);
    }
  } else {
    // Passes alternate spans off and on; the traced ones are the spans' roots.
    std::vector<double> plain_ns;
    std::vector<double> traced_ns;
    while (static_cast<int>(traced_ns.size()) < kMinPasses || NowNs() < deadline) {
      plain_ns.push_back(timed_pass(off, -1));
      int root = spans.Begin("pass." + args.workload);
      traced_ns.push_back(timed_pass(spans, root));
      spans.End(root);
    }
    SuiteResult suite = RunLayerSuite(args.seed, sizes, /*smoke=*/false, spans);
    attempted += suite.attempted;
    failed += suite.failed;
    for (const LayerMetric& m : suite.metrics) {
      metrics.push_back(Row{m.name, m.unit, m.value, m.value.median});
    }
    const double overhead = Median(traced_ns) / Median(plain_ns) - 1.0;
    metrics.push_back(Row{"bench.span_overhead_frac", "frac",
                          Spread{overhead, overhead, overhead, static_cast<int>(traced_ns.size())},
                          overhead});
    metrics.push_back(MedianRow("bench.reference_sort_ms", "ms", reference_ms));
  }

  // Times as on the reference host (see ReferenceSortMs); the raw figures are printed too.
  // Contention on a shared host only ever slows a pass down, so each figure is the fast
  // quartile of its repetitions: the 25th percentile of times (the reference's included) and
  // the 75th of rates. It moved less between runs than the median did.
  const double scale = kReferenceMs / Quantile(reference_ms, 0.25);
  auto fast_quartile = [](std::string name, std::string unit, std::vector<double> values,
                          double factor, double q) {
    for (double& v : values) {
      v *= factor;
    }
    return Row{std::move(name), std::move(unit), SpreadOf(values), Quantile(values, q)};
  };
  if (args.trace == 0) {
    metrics = {
        fast_quartile("setup_s", "s", setup_s, scale, 0.25),
        fast_quartile("work_per_s", "work/s", rate, 1.0 / scale, 0.75),
        fast_quartile("cpu_us_per_work", "us", cpu_per_work, scale, 0.25),
        MedianRow("peak_rss_mb", "MB", {PeakRssMb()}),
    };
  }

  // Per-workload names of the end-to-end figures, and the exact virtual-time results.
  std::printf("reference sort = %.6g ms (fast quartile of %zu), scale %.6g\n",
              Quantile(reference_ms, 0.25), reference_ms.size(), scale);
  std::printf("%s = %.6g %s/s raw, %.6g scaled (fast quartile of %zu passes)\n",
              ThroughputName(*workload), Quantile(rate, 0.75), workload->work_unit(),
              Quantile(rate, 0.75) / scale, rate.size());
  std::printf("cpu_s = %.6g s per pass raw (median)\n", Median(cpu_per_pass));
  std::printf("setup_s = %.6g s raw (fast quartile)\n", Quantile(setup_s, 0.25));
  std::printf("peak_rss_mb = %.6g MB\n", PeakRssMb());
  std::printf("fail_frac = %.6g (%d of %d ops)\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0, failed, attempted);
  for (const NamedValue& v : workload->VirtualMetrics()) {
    std::printf("%s = %.10g %s (exact)\n", v.name.c_str(), v.value, v.unit.c_str());
  }
  for (const Row& row : metrics) {
    reporter.Emit(args.workload, row);
  }
  if (spans.enabled()) {
    ReportSpans(spans, stem + ".spans.json");
  }
  if (ledger != nullptr) {
    std::fclose(ledger);
  }
  std::printf("%s\n", ResultJson(attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "hostbench: refusing to run an unoptimised build (%s)\n",
               HOSTBENCH_BUILD_TYPE);
  return 3;
#endif
  hostbench::Args args;
  if (!hostbench::ParseArgs(argc, argv, &args)) {
    hostbench::Usage();
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return args.smoke ? hostbench::RunSmoke() : hostbench::RunBenchmark(args);
}
