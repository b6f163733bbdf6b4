// Offered load x paradigm sweep over the open-loop service world: where does each of the
// paper's serving structures collapse?
//
// Each cell runs src/world/service_world.h at one offered aggregate rate under one paradigm
// (serializer / work-queue / pipeline) and folds per-class latency percentiles. Because the
// world runs on virtual time, every number here is a deterministic function of the spec — the
// whole table is machine-independent, so tests/behaviour.lock pins it byte for byte.
//
// The collapse knee is read per paradigm: the first offered-load point whose interactive p99
// exceeds 3x the paradigm's lightest-load p99, or whose goodput falls below 90% of admitted
// arrivals — open-loop saturation, where queues (bounded here, so: retries and drops) take
// over from service time.
//
//   bench_service_load               # the table; after the drops column, each row also gives
//                                    # both classes' counts, bulk p999, fresh arrivals,
//                                    # queue-full rejections and the deepest shard queue
//   bench_service_load --duration=4  # seconds of load per cell (default 2)
//   bench_service_load --clients=N --shards=K --seed=S

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/world/service_world.h"

namespace {

using world::RunServiceLoad;
using world::ServiceParadigm;
using world::ServiceParadigmName;
using world::ServiceRunResult;
using world::ServiceSpec;

constexpr pcr::Usec kSec = 1000 * pcr::kUsecPerMsec;

struct Args {
  int duration_sec = 2;
  int clients = 2000;
  int shards = 4;
  uint64_t seed = 11;
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_service_load [--duration=SECONDS] [--clients=N] [--shards=K]\n"
               "                          [--seed=S]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--duration=")) {
      args->duration_sec = std::atoi(v);
    } else if (const char* v = value("--clients=")) {
      args->clients = std::atoi(v);
    } else if (const char* v = value("--shards=")) {
      args->shards = std::atoi(v);
    } else if (const char* v = value("--seed=")) {
      args->seed = static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "bench_service_load: unknown option %s\n", arg.c_str());
      Usage();
      return false;
    }
  }
  if (args->duration_sec < 1 || args->clients < args->shards || args->shards < 1) {
    Usage();
    return false;
  }
  return true;
}

struct Cell {
  ServiceParadigm paradigm = ServiceParadigm::kSerializer;
  double offered = 0;
  ServiceRunResult result;
};

ServiceSpec SpecFor(const Args& args, ServiceParadigm paradigm, double offered) {
  ServiceSpec spec;
  spec.clients = args.clients;
  spec.shards = args.shards;
  spec.seed = args.seed;
  spec.paradigm = paradigm;
  spec.phases = {{.duration = args.duration_sec * kSec, .offered_per_sec = offered}};
  // No admission control and a deep-but-bounded queue: the sweep wants to watch queueing
  // delay take over, not an admission policy hide it.
  spec.queue_capacity = 256;
  return spec;
}

double Goodput(const Cell& cell, const Args& args) {
  int64_t completed =
      cell.result.totals.completed_interactive + cell.result.totals.completed_bulk;
  return static_cast<double>(completed) / args.duration_sec;
}

// First offered point past the collapse: p99 blows past 3x the lightest point's, or goodput
// falls under 90% of what was admitted per second. 0 = no knee inside the sweep.
double FindKnee(const std::vector<Cell>& cells, const Args& args, ServiceParadigm paradigm) {
  pcr::Usec base_p99 = 0;
  for (const Cell& cell : cells) {
    if (cell.paradigm != paradigm) {
      continue;
    }
    if (base_p99 == 0) {
      base_p99 = std::max<pcr::Usec>(cell.result.interactive.p99, 1);
      continue;
    }
    double admitted_rate =
        static_cast<double>(cell.result.totals.admitted) / args.duration_sec;
    if (cell.result.interactive.p99 > 3 * base_p99 ||
        Goodput(cell, args) < 0.9 * admitted_rate) {
      return cell.offered;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }

  const double kLoads[] = {1500, 3000, 6000};
  const ServiceParadigm kParadigms[] = {ServiceParadigm::kSerializer,
                                        ServiceParadigm::kWorkQueue,
                                        ServiceParadigm::kPipeline};

  std::vector<Cell> cells;
  std::printf("%-11s %8s | %9s %9s %9s | %9s %9s | %9s %7s %7s | %7s %7s %9s %8s %8s %9s\n",
              "paradigm", "offered", "i_p50", "i_p99", "i_p999", "b_p50", "b_p99", "goodput",
              "retries", "drops", "i_count", "b_count", "b_p999", "arrivals", "rej_full",
              "max_depth");
  for (ServiceParadigm paradigm : kParadigms) {
    for (double offered : kLoads) {
      Cell cell;
      cell.paradigm = paradigm;
      cell.offered = offered;
      cell.result = RunServiceLoad(SpecFor(args, paradigm, offered));
      const ServiceRunResult& r = cell.result;
      std::printf("%-11s %8.0f | %7lldus %7lldus %7lldus | %7lldus %7lldus | %9.1f %7lld %7lld"
                  " | %7lld %7lld %7lldus %8lld %8lld %9zu\n",
                  std::string(ServiceParadigmName(paradigm)).c_str(), offered,
                  static_cast<long long>(r.interactive.p50),
                  static_cast<long long>(r.interactive.p99),
                  static_cast<long long>(r.interactive.p999),
                  static_cast<long long>(r.bulk.p50), static_cast<long long>(r.bulk.p99),
                  Goodput(cell, args), static_cast<long long>(r.totals.retries),
                  static_cast<long long>(r.totals.drops),
                  static_cast<long long>(r.interactive.count),
                  static_cast<long long>(r.bulk.count), static_cast<long long>(r.bulk.p999),
                  static_cast<long long>(r.totals.arrivals),
                  static_cast<long long>(r.totals.rejected_full), r.totals.max_depth);
      cells.push_back(std::move(cell));
    }
    double knee = FindKnee(cells, args, paradigm);
    if (knee > 0) {
      std::printf("%-11s collapse knee at %.0f offered/sec\n",
                  std::string(ServiceParadigmName(paradigm)).c_str(), knee);
    }
  }

  // Determinism witness: re-run the heaviest serializer cell and require an identical trace.
  ServiceRunResult again = RunServiceLoad(SpecFor(args, ServiceParadigm::kSerializer, 6000));
  bool deterministic = false;
  for (const Cell& cell : cells) {
    if (cell.paradigm == ServiceParadigm::kSerializer && cell.offered == 6000) {
      deterministic = cell.result.trace_hash == again.trace_hash;
    }
  }
  std::printf("deterministic rerun: %s\n", deterministic ? "identical" : "DIVERGED");

  return deterministic ? 0 : 1;
}
