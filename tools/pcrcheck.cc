// pcrcheck: schedule exploration from the command line.
//
// Runs a named bug scenario (src/explore/scenarios.h) under many perturbed schedules, prints
// every distinct failure with a minimized repro string, and verifies that replaying each repro
// reproduces the identical trace hash twice.
//
//   pcrcheck --list
//   pcrcheck --scenario=buggy_monitor --budget=200
//   pcrcheck --all
//   pcrcheck --replay=pcr1:buggy_monitor:7:0r42x10r7x
//   pcrcheck --scenario=buggy_monitor --require-bug   # exit 1 unless a bug is found
//
// Exit status: 0 when every explored scenario matched its expectation (bug found iff
// expect_bug, or just "found" under --require-bug) and all replays were deterministic;
// 1 otherwise; 2 on usage errors.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>
#include <string>
#include <vector>

#include "examples/example_scenarios.h"
#include "src/explore/campaign.h"
#include "src/explore/explorer.h"
#include "src/explore/repro.h"
#include "src/explore/scenarios.h"
#include "src/fault/fault.h"
#include "src/pcr/errors.h"
#include "src/trace/export_chrome.h"

namespace {

struct Args {
  std::string scenario;
  std::string replay;
  std::string fault_plan;        // --fault-plan: base fault::Plan swept across schedules
  std::string chrome_trace_dir;  // --chrome-trace-on-failure: export failing schedules here
  bool all = false;
  bool list = false;
  bool require_bug = false;
  bool profile = false;
  bool no_checkpoint = false;  // force from-zero schedule execution (same results, slower)
  bool no_dpor = false;        // disable sleep-set leaf pruning (same findings, slower)
  int budget = -1;       // <0: use the scenario's tuned default
  uint64_t seed = 0;     // 0: use the scenario's tuned default
  int workers = 0;       // 0: hardware concurrency (the flag itself requires > 0)
  bool verbose = false;
  // Campaign mode (docs/FUZZING.md): coverage-guided fuzzing over the scenario set.
  std::string campaign_dir;          // --campaign=DIR enables it
  bool campaign_set = false;
  int campaign_rounds = 100;         // 0 = replay-only (corpus opened read-only: the CI gate)
  int campaign_batch = 16;
  std::string campaign_status_json;  // --campaign-status-json=FILE
  bool campaign_examples = false;    // also register examples/ workloads as scenarios
};

void Usage() {
  std::fprintf(stderr,
               "usage: pcrcheck [--list] [--all] [--scenario=NAME] [--budget=N] [--seed=N]\n"
               "                [--workers=N] [--replay=REPRO] [--require-bug] [--verbose]\n"
               "                [--profile] [--no-checkpoint] [--no-dpor]\n"
               "                [--chrome-trace-on-failure=DIR]\n"
               "                [--fault-plan=SPEC]   e.g. \"f1,rate=0.01,sites=notify-lost\"\n"
               "                                      (searches fault x schedule space; failing\n"
               "                                      repro strings then pin their fault plan)\n"
               "                [--campaign=DIR] [--campaign-rounds=N] [--campaign-batch=N]\n"
               "                [--campaign-status-json=FILE] [--campaign-examples]\n"
               "                                      coverage-guided fuzzing campaign over the\n"
               "                                      scenario set; DIR holds the corpus, rounds=0\n"
               "                                      replays it read-only (see docs/FUZZING.md)\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--list") {
      args->list = true;
    } else if (arg == "--all") {
      args->all = true;
    } else if (arg == "--require-bug") {
      args->require_bug = true;
    } else if (arg == "--verbose") {
      args->verbose = true;
    } else if (arg == "--profile") {
      args->profile = true;
    } else if (arg == "--no-checkpoint") {
      args->no_checkpoint = true;
    } else if (arg == "--no-dpor") {
      args->no_dpor = true;
    } else if (const char* v = value("--chrome-trace-on-failure=")) {
      args->chrome_trace_dir = v;
    } else if (arg == "--campaign-examples") {
      args->campaign_examples = true;
    } else if (const char* v = value("--campaign=")) {
      args->campaign_dir = v;
      args->campaign_set = true;
    } else if (const char* v = value("--campaign-rounds=")) {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || n < 0) {
        std::fprintf(stderr, "pcrcheck: --campaign-rounds expects a non-negative integer, got '%s'\n",
                     v);
        return false;
      }
      args->campaign_rounds = static_cast<int>(n);
    } else if (const char* v = value("--campaign-batch=")) {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "pcrcheck: --campaign-batch expects a positive integer, got '%s'\n", v);
        return false;
      }
      args->campaign_batch = static_cast<int>(n);
    } else if (const char* v = value("--campaign-status-json=")) {
      args->campaign_status_json = v;
    } else if (const char* v = value("--scenario=")) {
      args->scenario = v;
    } else if (const char* v = value("--fault-plan=")) {
      args->fault_plan = v;
    } else if (const char* v = value("--replay=")) {
      args->replay = v;
    } else if (const char* v = value("--budget=")) {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || n < 0) {
        std::fprintf(stderr, "pcrcheck: --budget expects a non-negative integer, got '%s'\n", v);
        return false;
      }
      args->budget = static_cast<int>(n);
    } else if (const char* v = value("--seed=")) {
      // A leading digit: strtoull would also take a sign, and wrap "-1" to 2^64 - 1.
      char* end = nullptr;
      errno = 0;
      uint64_t n = std::strtoull(v, &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "pcrcheck: --seed expects an integer >= 0, got '%s'\n", v);
        return false;
      }
      args->seed = n;
    } else if (const char* v = value("--workers=")) {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "pcrcheck: --workers expects a positive integer, got '%s'\n", v);
        return false;
      }
      args->workers = static_cast<int>(n);
    } else {
      std::fprintf(stderr, "pcrcheck: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Replays `repro` twice and checks all three hashes agree; the repro string is only useful if
// it pins down one schedule exactly.
bool VerifyReplay(const explore::Explorer& explorer, const explore::ScheduleOutcome& failure,
                  const explore::TestBody& body) {
  explore::ScheduleOutcome first = explorer.Replay(failure.repro, body);
  explore::ScheduleOutcome second = explorer.Replay(failure.repro, body);
  bool ok = first.trace_hash == failure.trace_hash && second.trace_hash == failure.trace_hash &&
            first.failed && second.failed;
  std::printf("  replay x2: hash %016llx / %016llx / %016llx -> %s\n",
              static_cast<unsigned long long>(failure.trace_hash),
              static_cast<unsigned long long>(first.trace_hash),
              static_cast<unsigned long long>(second.trace_hash),
              ok ? "deterministic" : "MISMATCH");
  return ok;
}

// Returns true when the scenario behaved as expected.
bool RunScenario(const explore::BugScenario& scenario, const Args& args) {
  explore::ExploreOptions options = scenario.options;
  if (args.budget >= 0) {
    options.budget = args.budget;
  }
  if (args.seed != 0) {
    options.seed = args.seed;
  }
  options.workers = args.workers;  // 0 = hardware concurrency
  if (args.no_checkpoint) {
    options.checkpoint = false;
  }
  if (args.no_dpor) {
    options.dpor = false;
  }
  if (!args.fault_plan.empty()) {
    options.fault_plan = fault::Plan::Decode(args.fault_plan);
  }

  std::printf("== %s: %s\n", scenario.name.c_str(), scenario.description.c_str());
  explore::Explorer explorer(options);
  explore::ExploreResult result = explorer.Explore(scenario.body);
  std::printf("  %d schedules run, %d distinct, %zu failure(s)\n", result.schedules_run,
              result.distinct_schedules, result.failures.size());

  bool ok = true;
  int failure_index = 0;
  for (const explore::ScheduleOutcome& failure : result.failures) {
    std::printf("  FAILURE (schedule %d):\n", failure.schedule_index);
    for (const std::string& message : failure.failures) {
      std::printf("    %s\n", message.c_str());
    }
    std::printf("  repro: %s\n", failure.repro.c_str());
    ok = VerifyReplay(explorer, failure, scenario.body) && ok;
    if (!args.chrome_trace_dir.empty()) {
      // Re-execute the failing schedule with a capture tracer and export it for visual triage
      // in ui.perfetto.dev.
      std::error_code ec;
      std::filesystem::create_directories(args.chrome_trace_dir, ec);
      std::string path = args.chrome_trace_dir + "/" + scenario.name + "-" +
                         std::to_string(failure_index) + ".json";
      trace::Tracer capture;
      explorer.Replay(failure.repro, scenario.body, &capture);
      if (trace::SaveChromeTraceFile(path, capture)) {
        std::printf("  chrome trace: %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "  could not write chrome trace %s\n", path.c_str());
      }
    }
    ++failure_index;
  }
  if (args.verbose && !result.baseline.findings.empty()) {
    std::printf("  baseline findings:\n%s", RenderFindings(result.baseline.findings).c_str());
  }
  if (args.profile) {
    const explore::ExploreProfile& p = result.profile;
    double busy = p.run_sec + p.detector_sec;
    std::printf(
        "  profile: %.1f schedules/s | wall %.3fs = baseline %.3fs + sweep %.3fs + "
        "minimize %.3fs | worker-time run %.3fs, detector %.3fs (%.1f%% of busy)\n",
        p.schedules_per_sec, p.total_sec, p.baseline_sec, p.sweep_sec, p.minimize_sec,
        p.run_sec, p.detector_sec, busy > 0 ? 100.0 * p.detector_sec / busy : 0.0);
    // Checkpoint/prune counters as a key-sorted table: stable line order and a fixed
    // key=value shape, so CI logs diff cleanly across runs and new counters slot in
    // alphabetically instead of reshuffling a prose line.
    std::vector<std::pair<std::string, long long>> counters = {
        {"boundary_d1", static_cast<long long>(p.boundary_d1)},
        {"boundary_d2", static_cast<long long>(p.boundary_d2)},
        {"boundary_d3", static_cast<long long>(p.boundary_d3)},
        {"checkpoint_bytes", static_cast<long long>(p.checkpoint_bytes)},
        {"checkpoint_resumes", static_cast<long long>(p.checkpoint_resumes)},
        {"checkpoint_saves", static_cast<long long>(p.checkpoint_saves)},
        {"dpor_pruned", static_cast<long long>(p.dpor_pruned)},
        {"drain_spliced", static_cast<long long>(p.drain_spliced)},
        {"pruned_schedules", static_cast<long long>(p.pruned_schedules)},
    };
    std::sort(counters.begin(), counters.end());
    for (const auto& [key, value] : counters) {
      std::printf("  counter %-20s %lld\n", key.c_str(), value);
    }
  }

  bool found = !result.failures.empty();
  bool expected = args.require_bug ? found : (found == scenario.expect_bug);
  std::printf("  verdict: %s (expected %s, %s)\n",
              expected && ok ? "OK" : "UNEXPECTED",
              scenario.expect_bug ? "bug" : "no bug", found ? "found one" : "found none");
  return expected && ok;
}

// Coverage-guided fuzzing campaign (docs/FUZZING.md). Returns the process exit code.
int RunCampaign(const Args& args) {
  std::vector<explore::BugScenario> scenarios;
  if (!args.scenario.empty()) {
    const explore::BugScenario* s = explore::FindScenario(args.scenario);
    if (s == nullptr) {
      std::fprintf(stderr, "pcrcheck: unknown scenario '%s' (try --list)\n",
                   args.scenario.c_str());
      return 2;
    }
    scenarios.push_back(*s);
  } else {
    for (const explore::BugScenario& s : explore::Scenarios()) {
      scenarios.push_back(s);
    }
  }
  if (!args.fault_plan.empty()) {
    for (explore::BugScenario& s : scenarios) {
      s.options.fault_plan = fault::Plan::Decode(args.fault_plan);
    }
  }
  if (args.no_checkpoint) {
    for (explore::BugScenario& s : scenarios) {
      s.options.checkpoint = false;
    }
  }
  if (args.no_dpor) {
    for (explore::BugScenario& s : scenarios) {
      s.options.dpor = false;
    }
  }

  explore::CampaignOptions options;
  options.corpus_dir = args.campaign_dir;
  options.rounds = args.campaign_rounds;
  options.read_only = args.campaign_rounds == 0;  // replay-only: never dirty the corpus
  options.batch = args.campaign_batch;
  if (args.seed != 0) {
    options.seed = args.seed;
  }
  options.workers = args.workers;
  options.status_json_path = args.campaign_status_json;

  std::printf("== campaign: %zu scenario(s), corpus '%s'%s, %d round(s) x %d\n",
              scenarios.size(), options.corpus_dir.c_str(),
              options.read_only ? " (read-only replay)" : "", options.rounds, options.batch);
  explore::Campaign campaign(std::move(scenarios), options);
  const explore::CampaignStatus& status = campaign.Run();

  std::printf("  %d round(s), %lld input(s), corpus %zu (+%zu crash), coverage %zu, "
              "%zu distinct failure(s)\n",
              status.rounds_completed, static_cast<long long>(status.inputs_run),
              status.corpus_entries, status.crash_entries, status.coverage_points,
              status.distinct_failures);
  for (const std::string& key : status.failure_keys) {
    std::printf("  failure: %s\n", key.c_str());
  }
  for (const std::string& error : status.errors) {
    std::fprintf(stderr, "  ERROR: %s\n", error.c_str());
  }
  std::printf("  verdict: %s\n", status.ok() ? "OK" : "CAMPAIGN ERRORS");
  return status.ok() ? 0 : 1;
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
      std::fprintf(stderr, "pcrcheck: %s\n", e.what());
      return 2;
    }
  }

  if (args.campaign_examples) {
    examples::RegisterExampleExploreScenarios();
  }

  if (args.list) {
    for (const explore::BugScenario& s : explore::Scenarios()) {
      std::printf("%-16s %s (expect %s, default budget %d)\n", s.name.c_str(),
                  s.description.c_str(), s.expect_bug ? "bug" : "clean", s.options.budget);
    }
    return 0;
  }

  if (!args.replay.empty()) {
    explore::Repro repro;
    if (!explore::Repro::Decode(args.replay, &repro)) {
      std::fprintf(stderr, "pcrcheck: malformed repro string\n");
      return 2;
    }
    const explore::BugScenario* scenario = explore::FindScenario(repro.scenario);
    if (scenario == nullptr) {
      std::fprintf(stderr, "pcrcheck: repro names unknown scenario '%s'\n",
                   repro.scenario.c_str());
      return 2;
    }
    explore::Explorer explorer(scenario->options);
    explore::ScheduleOutcome outcome = explorer.Replay(repro, scenario->body);
    std::printf("replayed %s: hash %016llx, %s\n", repro.scenario.c_str(),
                static_cast<unsigned long long>(outcome.trace_hash),
                outcome.failed ? "FAILED" : "passed");
    for (const std::string& message : outcome.failures) {
      std::printf("  %s\n", message.c_str());
    }
    return outcome.failed ? 1 : 0;
  }

  if (args.campaign_set) {
    if (args.campaign_dir.empty()) {
      std::fprintf(stderr, "pcrcheck: --campaign expects a corpus directory\n");
      return 2;
    }
    return RunCampaign(args);
  }

  std::vector<const explore::BugScenario*> to_run;
  if (args.all) {
    for (const explore::BugScenario& s : explore::Scenarios()) {
      to_run.push_back(&s);
    }
  } else if (!args.scenario.empty()) {
    const explore::BugScenario* scenario = explore::FindScenario(args.scenario);
    if (scenario == nullptr) {
      std::fprintf(stderr, "pcrcheck: unknown scenario '%s' (try --list)\n",
                   args.scenario.c_str());
      return 2;
    }
    to_run.push_back(scenario);
  } else {
    Usage();
    return 2;
  }

  bool all_ok = true;
  for (const explore::BugScenario* scenario : to_run) {
    all_ok = RunScenario(*scenario, args) && all_ok;
  }
  return all_ok ? 0 : 1;
}
