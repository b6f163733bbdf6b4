// Schedule-exploration throughput: serial vs parallel.
//
// The whole repo's value is how many deterministic virtual-time schedules it can execute per
// second; this bench measures exactly that, per canned pcrcheck scenario, once on one worker
// and once on a pool (default: hardware concurrency). It also re-checks the parallel
// explorer's contract — byte-identical results at any worker count — and exits nonzero on a
// mismatch, so it doubles as a determinism smoke test in CI.
//
//   bench_explore                   # human-readable table, all scenarios (plus large-budget
//                                   # monitor configs, where checkpoint-and-branch amortizes)
//   bench_explore --workers=8       # pin the parallel worker count
//   bench_explore --budget=400      # override each scenario's schedule budget
//   bench_explore --no-checkpoint   # force from-zero replay (the fallback CI gates on)
//   bench_explore --require-speedup=2
//                                   # exit nonzero unless every parallel run beats serial by
//                                   # 2x; auto-skipped below 4 hardware cores
//   bench_explore --fault-plan="f1,rate=0.05,sites=notify-lost"
//                                   # sweep fault x schedule space; the serial==parallel
//                                   # check then covers fault-plan determinism too

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/explore/explorer.h"
#include "src/explore/pool.h"
#include "src/explore/scenarios.h"
#include "src/fault/fault.h"
#include "src/pcr/checkpoint.h"
#include "src/pcr/errors.h"
#include "src/pcr/runtime.h"

namespace {

struct Args {
  std::string scenario;    // empty: all
  std::string fault_plan;  // --fault-plan: base fault::Plan swept across schedules
  int budget = -1;         // <0: scenario default
  int workers = 0;         // 0: hardware concurrency
  bool no_checkpoint = false;   // force from-zero replay in both runs
  bool no_dpor = false;         // disable sleep-set leaf pruning in both runs
  double require_speedup = 0;   // >0: gate on parallel/serial ratio (4+ cores only)
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_explore [--scenario=NAME] [--budget=N] [--workers=N]\n"
               "                     [--no-checkpoint] [--no-dpor] [--require-speedup=N]\n"
               "                     [--fault-plan=SPEC]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--no-checkpoint") {
      args->no_checkpoint = true;
    } else if (arg == "--no-dpor") {
      args->no_dpor = true;
    } else if (const char* v = value("--require-speedup=")) {
      char* end = nullptr;
      double n = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || n <= 0) {
        std::fprintf(stderr,
                     "bench_explore: --require-speedup expects a positive number, got '%s'\n",
                     v);
        return false;
      }
      args->require_speedup = n;
    } else if (const char* v = value("--scenario=")) {
      args->scenario = v;
    } else if (const char* v = value("--fault-plan=")) {
      args->fault_plan = v;
    } else if (const char* v = value("--budget=")) {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "bench_explore: --budget expects a positive integer, got '%s'\n",
                     v);
        return false;
      }
      args->budget = static_cast<int>(n);
    } else if (const char* v = value("--workers=")) {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "bench_explore: --workers expects a positive integer, got '%s'\n",
                     v);
        return false;
      }
      args->workers = static_cast<int>(n);
    } else {
      std::fprintf(stderr, "bench_explore: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

struct Measurement {
  std::string scenario;
  int budget = 0;
  int workers_parallel = 1;
  double schedules_per_sec_serial = 0;
  double schedules_per_sec_parallel = 0;
  double speedup = 0;
  double events_per_sec_parallel = 0;
  bool deterministic = false;
  // Runtime counters from the parallel run's profile. pool_hit_rate is informational only —
  // it depends on worker placement, so it is excluded from the determinism comparison.
  int64_t fiber_switches = 0;
  int64_t stack_acquires = 0;
  int64_t stack_pool_hits = 0;
  // Checkpoint-and-branch counters, also from the parallel run (all zero in from-zero mode).
  bool checkpoint = false;
  int64_t checkpoint_saves = 0;
  int64_t checkpoint_resumes = 0;
  int64_t checkpoint_bytes = 0;
  int64_t pruned_schedules = 0;
  // DPOR leaf pruning (subsets of pruned_schedules; zero under --no-dpor).
  int64_t dpor_pruned = 0;
  int64_t drain_spliced = 0;
};

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Field-for-field comparison of the parts of an ExploreResult the contract promises.
bool SameResult(const explore::ExploreResult& a, const explore::ExploreResult& b) {
  if (a.schedules_run != b.schedules_run || a.distinct_schedules != b.distinct_schedules ||
      a.baseline.trace_hash != b.baseline.trace_hash || a.failures.size() != b.failures.size()) {
    return false;
  }
  for (size_t i = 0; i < a.failures.size(); ++i) {
    const explore::ScheduleOutcome& fa = a.failures[i];
    const explore::ScheduleOutcome& fb = b.failures[i];
    if (fa.schedule_index != fb.schedule_index || fa.trace_hash != fb.trace_hash ||
        fa.repro != fb.repro || fa.failures != fb.failures) {
      return false;
    }
  }
  return true;
}

// budget_override/label: used by the default sweep's large-budget configs, which rerun a
// scenario under a distinct row name (e.g. "good_monitor@2k") at the budget where prefix
// grouping amortizes.
Measurement RunScenario(const explore::BugScenario& scenario, const Args& args,
                        int budget_override = -1, const char* label = nullptr) {
  Measurement m;
  m.scenario = label != nullptr ? label : scenario.name;

  explore::ExploreOptions options = scenario.options;
  if (budget_override > 0) {
    options.budget = budget_override;
  }
  if (args.budget > 0) {
    options.budget = args.budget;
  }
  if (args.no_checkpoint) {
    options.checkpoint = false;
  }
  if (args.no_dpor) {
    options.dpor = false;
  }
  m.checkpoint = options.checkpoint && pcr::Checkpoint::Supported() && scenario.checkpoint_safe;
  if (!args.fault_plan.empty()) {
    options.fault_plan = fault::Plan::Decode(args.fault_plan);
  }
  m.budget = options.budget;
  m.workers_parallel =
      args.workers > 0 ? args.workers : explore::WorkerPool::HardwareWorkers();

  // Events per schedule, from one plain run of the body (the same run every schedule perturbs).
  int64_t events_per_schedule = 0;
  {
    pcr::Config config = options.base_config;
    config.trace_events = true;
    pcr::Runtime rt(config);
    explore::TestContext ctx;
    scenario.body(rt, ctx);
    rt.Shutdown();
    events_per_schedule = static_cast<int64_t>(rt.tracer().size());
  }

  options.workers = 1;
  explore::Explorer serial(options);
  auto t0 = std::chrono::steady_clock::now();
  explore::ExploreResult serial_result = serial.Explore(scenario.body);
  auto t1 = std::chrono::steady_clock::now();

  options.workers = m.workers_parallel;
  explore::Explorer parallel(options);
  auto t2 = std::chrono::steady_clock::now();
  explore::ExploreResult parallel_result = parallel.Explore(scenario.body);
  auto t3 = std::chrono::steady_clock::now();

  const double serial_seconds = Seconds(t0, t1);
  const double parallel_seconds = Seconds(t2, t3);
  // Throughput counts executed schedules: the full budget, since the parallel sweep runs every
  // precomputed plan (the merge, not execution, applies the max_failures cutoff).
  if (serial_seconds > 0) {
    m.schedules_per_sec_serial = m.budget / serial_seconds;
  }
  if (parallel_seconds > 0) {
    m.schedules_per_sec_parallel = m.budget / parallel_seconds;
    m.events_per_sec_parallel =
        static_cast<double>(events_per_schedule) * m.budget / parallel_seconds;
  }
  if (parallel_seconds > 0 && serial_seconds > 0) {
    m.speedup = serial_seconds / parallel_seconds;
  }
  m.deterministic = SameResult(serial_result, parallel_result);
  m.fiber_switches = parallel_result.profile.fiber_switches;
  m.stack_acquires = parallel_result.profile.stack_acquires;
  m.stack_pool_hits = parallel_result.profile.stack_pool_hits;
  m.checkpoint_saves = parallel_result.profile.checkpoint_saves;
  m.checkpoint_resumes = parallel_result.profile.checkpoint_resumes;
  m.checkpoint_bytes = parallel_result.profile.checkpoint_bytes;
  m.pruned_schedules = parallel_result.profile.pruned_schedules;
  m.dpor_pruned = parallel_result.profile.dpor_pruned;
  m.drain_spliced = parallel_result.profile.drain_spliced;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.fault_plan.empty()) {
    try {
      (void)fault::Plan::Decode(args.fault_plan);
    } catch (const pcr::UsageError& e) {
      std::fprintf(stderr, "bench_explore: %s\n", e.what());
      return 2;
    }
  }

  std::vector<const explore::BugScenario*> to_run;
  for (const explore::BugScenario& s : explore::Scenarios()) {
    if (args.scenario.empty() || args.scenario == s.name) {
      to_run.push_back(&s);
    }
  }
  if (to_run.empty()) {
    std::fprintf(stderr, "bench_explore: unknown scenario '%s'\n", args.scenario.c_str());
    return 2;
  }

  std::vector<Measurement> all;
  bool deterministic = true;
  auto report = [&](Measurement m) {
    double pool_hit_rate =
        m.stack_acquires > 0
            ? 100.0 * static_cast<double>(m.stack_pool_hits) / m.stack_acquires
            : 0.0;
    std::printf(
        "%-16s budget=%-4d workers=%-2d serial %7.1f sched/s, parallel %7.1f sched/s "
        "(%.2fx), %.0f events/s, %lld switches, %lld stacks (%.0f%% pooled), %s\n",
        m.scenario.c_str(), m.budget, m.workers_parallel, m.schedules_per_sec_serial,
        m.schedules_per_sec_parallel, m.speedup, m.events_per_sec_parallel,
        static_cast<long long>(m.fiber_switches), static_cast<long long>(m.stack_acquires),
        pool_hit_rate, m.deterministic ? "deterministic" : "MISMATCH");
    if (m.checkpoint) {
      std::printf(
          "%-16s   checkpoint: %lld saves, %lld resumes, %lld KB snapshots, %lld pruned "
          "(%lld dpor, %lld spliced)\n",
          "", static_cast<long long>(m.checkpoint_saves),
          static_cast<long long>(m.checkpoint_resumes),
          static_cast<long long>(m.checkpoint_bytes / 1024),
          static_cast<long long>(m.pruned_schedules), static_cast<long long>(m.dpor_pruned),
          static_cast<long long>(m.drain_spliced));
    }
    deterministic = deterministic && m.deterministic;
    all.push_back(std::move(m));
  };
  for (const explore::BugScenario* scenario : to_run) {
    report(RunScenario(*scenario, args));
  }
  // Large-budget monitor configs: at the default budget (200) checkpoint-and-branch barely
  // amortizes its snapshot cost; these rows show the O(suffix) regime the design targets.
  // Skipped under --scenario/--budget overrides, which already pin an exact configuration.
  if (args.scenario.empty() && args.budget < 0) {
    for (const explore::BugScenario& s : explore::Scenarios()) {
      if (std::string(s.name) == "buggy_monitor") {
        report(RunScenario(s, args, 2000, "buggy_monitor@2k"));
      } else if (std::string(s.name) == "good_monitor") {
        report(RunScenario(s, args, 2000, "good_monitor@2k"));
      }
    }
  }

  if (!deterministic) {
    std::fprintf(stderr, "bench_explore: serial and parallel results diverged\n");
    return 1;
  }
  if (args.require_speedup > 0) {
    if (explore::WorkerPool::HardwareWorkers() < 4) {
      std::printf(
          "require-speedup: skipped (%d hardware core(s); the gate needs 4+ so parallel "
          "headroom exists)\n",
          explore::WorkerPool::HardwareWorkers());
    } else {
      bool ok = true;
      for (const Measurement& m : all) {
        if (m.speedup < args.require_speedup) {
          std::fprintf(stderr, "bench_explore: %s parallel speedup %.2fx < required %.2fx\n",
                       m.scenario.c_str(), m.speedup, args.require_speedup);
          ok = false;
        }
      }
      if (!ok) {
        return 1;
      }
    }
  }
  return 0;
}
