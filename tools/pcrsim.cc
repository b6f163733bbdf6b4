// pcrsim — command-line driver for the reproduction's benchmark scenarios.
//
//   pcrsim --list
//   pcrsim --scenario keyboard --duration 30 --seed 2
//   pcrsim --scenario keyboard --dump 5000:5100      # a 100 ms event history (Section 7:
//                                                    # "the same 100 millisecond event
//                                                    # histories")
//   pcrsim --scenario compile --histogram            # execution-interval histogram
//   pcrsim --all --tables                            # Tables 1-4 across every scenario

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "src/analysis/profile.h"
#include "src/fault/fault.h"
#include "src/fault/watchdog.h"
#include "src/trace/export_chrome.h"
#include "src/trace/serialize.h"
#include "src/analysis/table.h"
#include "src/pcr/errors.h"
#include "src/pcr/runtime.h"
#include "src/world/scenarios.h"
#include "src/world/service_world.h"

namespace {

struct Cli {
  bool list = false;
  bool all = false;
  bool tables = false;
  bool histogram = false;
  bool genealogy = false;
  bool profile = false;
  std::optional<std::string> save_trace;
  std::optional<std::string> chrome_trace;
  std::optional<std::string> metrics_json;
  std::optional<std::string> scenario;
  std::optional<std::string> load_scenario;
  double offered_load = 0;  // 0: the load scenario's own default
  int shards = 4;
  std::optional<std::string> fault_plan;
  bool watchdog = false;
  double duration_sec = 30.0;
  double warmup_sec = 2.0;
  uint64_t seed = 1;
  size_t dump_limit = 4000;
  std::optional<std::pair<long, long>> dump_ms;  // [from, to) in virtual milliseconds
  std::vector<std::string> given;  // every option on the command line, in order
};

// Short slugs accepted on the command line, one per scenario.
struct Slug {
  const char* name;
  world::Scenario scenario;
};
constexpr Slug kSlugs[] = {
    {"idle", world::Scenario::kCedarIdle},
    {"keyboard", world::Scenario::kCedarKeyboard},
    {"mouse", world::Scenario::kCedarMouse},
    {"scroll", world::Scenario::kCedarScroll},
    {"format", world::Scenario::kCedarFormat},
    {"preview", world::Scenario::kCedarPreview},
    {"make", world::Scenario::kCedarMake},
    {"compile", world::Scenario::kCedarCompile},
    {"gvx-idle", world::Scenario::kGvxIdle},
    {"gvx-keyboard", world::Scenario::kGvxKeyboard},
    {"gvx-mouse", world::Scenario::kGvxMouse},
    {"gvx-scroll", world::Scenario::kGvxScroll},
    {"everyday", world::Scenario::kCedarEveryday},
};

void PrintUsage() {
  std::printf(
      "pcrsim — run the SOSP'93 thread-usage scenarios on the virtual-time PCR runtime\n\n"
      "  --list                  list scenario slugs\n"
      "  --scenario <slug>       run one scenario and print its summary row\n"
      "  --all                   run every scenario\n"
      "  --duration <seconds>    measurement window (default 30)\n"
      "  --warmup <seconds>      warm-up excluded from stats (default 2)\n"
      "  --seed <n>              workload seed (default 1)\n"
      "  --tables                print Tables 1-4 (implies --all unless --scenario given)\n"
      "  --histogram             print the execution-interval histogram\n"
      "  --genealogy             print the fork-genealogy summary\n"
      "  --profile               print the per-thread traffic profile\n"
      "  --save-trace <file>     write the raw event trace to a file\n"
      "  --chrome-trace <file>   export a Chrome/Perfetto trace (open in ui.perfetto.dev)\n"
      "  --metrics-json <file>   write the runtime metrics registry snapshot as JSON\n"
      "  --dump <from>:<to>      dump the raw event history for [from,to) virtual ms\n"
      "  --dump-limit <n>        max events per --dump before truncation (default 4000)\n"
      "  --fault-plan <spec>     inject faults per a fault::Plan spec, e.g.\n"
      "                          \"f1,rate=0.01,sites=notify-lost+x-drop,seed=7\" or\n"
      "                          \"f1,fork@3\" (see docs/FAULTS.md for the grammar)\n"
      "  --watchdog              run the in-simulation watchdog daemon and print its reports\n"
      "  --load-scenario <slug>  run the open-loop service world instead of a Cedar scenario:\n"
      "                          steady | overload | admitted | brownout | no-admission\n"
      "                          (see docs/WORLDS.md; reads only --duration/--seed/\n"
      "                          --watchdog/--fault-plan/--offered-load/--shards)\n"
      "  --offered-load <n>      aggregate arrivals/sec for --load-scenario (default per slug)\n"
      "  --shards <k>            shard count for --load-scenario (default 4)\n"
      "\nOptions also accept --flag=value. An option the chosen mode (--list, --load-scenario,\n"
      "or a scenario run) does not read is a usage error, and so is --save-trace, --chrome-trace\n"
      "or --metrics-json without --scenario: each writes one run's file. A numeric value must\n"
      "parse whole and lie in its option's range.\n");
}

std::optional<world::Scenario> ParseScenario(const std::string& slug) {
  for (const Slug& s : kSlugs) {
    if (slug == s.name) {
      return s.scenario;
    }
  }
  return std::nullopt;
}

// The longest --duration or --warmup: every virtual time a run derives from them then stays
// far inside a Usec.
constexpr double kMaxSeconds = 1e9;

// Numeric values are parsed whole, as pcrcheck parses its own, and range-checked; a value that
// fails either is a usage error naming the option.
[[noreturn]] void BadValue(const std::string& flag, const char* want, const std::string& got) {
  std::fprintf(stderr, "pcrsim: %s expects %s, got '%s'\n", flag.c_str(), want, got.c_str());
  std::exit(2);
}

// The whole of `text` as a finite number: "abc", "5s", "" and "inf" fail.
std::optional<double> ParseReal(const std::string& text) {
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

// The whole of `text` as a decimal integer no greater than `max`: "-1", "5x", "" and a value
// past `max` fail.
std::optional<uint64_t> ParseCount(const std::string& text, uint64_t max) {
  char* end = nullptr;
  errno = 0;
  uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' || errno == ERANGE ||
      v > max) {
    return std::nullopt;
  }
  return v;
}

bool ParseArgs(int argc, char** argv, Cli* cli) {
  // Accept both `--flag value` and `--flag=value` by splitting on the first '=' up front.
  // `attached[i]` marks args[i] as the value half of a split, so a flag that takes no value
  // can reject `--list=yes` with a usage error instead of tripping over a stray "yes" later.
  std::vector<std::string> args;
  std::vector<bool> attached;
  for (int i = 1; i < argc; ++i) {
    std::string raw = argv[i];
    size_t eq;
    if (raw.rfind("--", 0) == 0 && (eq = raw.find('=')) != std::string::npos) {
      args.push_back(raw.substr(0, eq));
      attached.push_back(false);
      args.push_back(raw.substr(eq + 1));
      attached.push_back(true);
    } else {
      args.push_back(std::move(raw));
      attached.push_back(false);
    }
  }
  for (size_t i = 0; i < args.size(); ++i) {
    std::string arg = args[i];
    if (attached[i]) {
      // Only a value-taking flag consumes the following split value via next(); reaching one
      // at top of loop means the preceding flag was boolean.
      std::fprintf(stderr, "pcrsim: %s does not take a value (got '%s')\n",
                   args[i - 1].c_str(), arg.c_str());
      return false;
    }
    cli->given.push_back(arg);
    auto next = [&]() -> const char* {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "pcrsim: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return args[++i].c_str();
    };
    auto real = [&](bool (*in_range)(double), const char* want) {
      std::optional<double> v = ParseReal(next());
      if (!v.has_value() || !in_range(*v)) {
        BadValue(arg, want, args[i]);
      }
      return *v;
    };
    auto count = [&](uint64_t min, uint64_t max, const char* want) {
      std::optional<uint64_t> v = ParseCount(next(), max);
      if (!v.has_value() || *v < min) {
        BadValue(arg, want, args[i]);
      }
      return *v;
    };
    if (arg == "--list") {
      cli->list = true;
    } else if (arg == "--all") {
      cli->all = true;
    } else if (arg == "--tables") {
      cli->tables = true;
    } else if (arg == "--histogram") {
      cli->histogram = true;
    } else if (arg == "--genealogy") {
      cli->genealogy = true;
    } else if (arg == "--profile") {
      cli->profile = true;
    } else if (arg == "--save-trace") {
      cli->save_trace = next();
    } else if (arg == "--chrome-trace") {
      cli->chrome_trace = next();
    } else if (arg == "--metrics-json") {
      cli->metrics_json = next();
    } else if (arg == "--dump-limit") {
      cli->dump_limit = count(0, SIZE_MAX, "an integer >= 0");
    } else if (arg == "--scenario") {
      cli->scenario = next();
    } else if (arg == "--load-scenario") {
      cli->load_scenario = next();
    } else if (arg == "--offered-load") {
      cli->offered_load = real([](double v) { return v > 0; }, "arrivals/sec > 0");
    } else if (arg == "--shards") {
      cli->shards = static_cast<int>(count(1, INT_MAX, "an integer >= 1"));
    } else if (arg == "--fault-plan") {
      cli->fault_plan = next();
    } else if (arg == "--watchdog") {
      cli->watchdog = true;
    } else if (arg == "--duration") {
      cli->duration_sec =
          real([](double v) { return v > 0 && v <= kMaxSeconds; }, "seconds > 0 and <= 1e9");
    } else if (arg == "--warmup") {
      cli->warmup_sec =
          real([](double v) { return v >= 0 && v <= kMaxSeconds; }, "seconds >= 0 and <= 1e9");
    } else if (arg == "--seed") {
      cli->seed = count(0, UINT64_MAX, "an integer >= 0");
    } else if (arg == "--dump") {
      // Bounded so that the window's ends in microseconds still fit a Usec.
      const std::string range = next();
      const size_t colon = range.find(':');
      const uint64_t max_ms = INT64_MAX / pcr::kUsecPerMsec;
      std::optional<uint64_t> from;
      std::optional<uint64_t> to;
      if (colon != std::string::npos) {
        from = ParseCount(range.substr(0, colon), max_ms);
        to = ParseCount(range.substr(colon + 1), max_ms);
      }
      if (!from.has_value() || !to.has_value() || *from >= *to) {
        BadValue(arg, "<from>:<to> in ms with from < to", range);
      }
      cli->dump_ms = {static_cast<long>(*from), static_cast<long>(*to)};
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "pcrsim: unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Why the mode the command line chose does not read `flag`, or nullptr when it does: --list
// reads no other option, --load-scenario reads six, and a scenario run reads all but the two
// that size the service world. The three exports that write one run's file also need
// --scenario, since a run of every scenario would overwrite each file scenario by scenario.
const char* WhyUnread(const Cli& cli, const std::string& flag) {
  if (cli.list) {
    return flag == "--list" ? nullptr : "is not read with --list";
  }
  if (cli.load_scenario.has_value()) {
    for (const char* read : {"--load-scenario", "--duration", "--seed", "--watchdog",
                             "--fault-plan", "--offered-load", "--shards"}) {
      if (flag == read) {
        return nullptr;
      }
    }
    return "is not read with --load-scenario";
  }
  if (flag == "--offered-load" || flag == "--shards") {
    return "is not read without --load-scenario";
  }
  if (!cli.scenario.has_value() &&
      (flag == "--save-trace" || flag == "--chrome-trace" || flag == "--metrics-json")) {
    return "writes one run's file, so it needs --scenario";
  }
  return nullptr;
}

void PrintClassRow(const char* name, const world::ServiceClassStats& s) {
  std::printf("  %-11s completed=%-7lld samples=%-7lld p50=%lldus p99=%lldus p999=%lldus "
              "mean=%.0fus\n",
              name, static_cast<long long>(s.completed), static_cast<long long>(s.count),
              static_cast<long long>(s.p50), static_cast<long long>(s.p99),
              static_cast<long long>(s.p999), s.mean);
}

// The --load-scenario path: one canned ServiceSpec per slug, run through RunServiceLoad with
// the injector/watchdog wired the same way the Cedar scenarios get them.
int RunLoadScenario(const Cli& cli, fault::Injector& injector) {
  const std::string& slug = *cli.load_scenario;
  world::ServiceSpec spec;
  spec.shards = cli.shards;
  spec.seed = cli.seed;
  pcr::Usec duration = static_cast<pcr::Usec>(cli.duration_sec * pcr::kUsecPerSec);
  double offered = cli.offered_load;
  if (slug == "steady") {
    spec.phases = {{.duration = duration, .offered_per_sec = offered > 0 ? offered : 1500}};
  } else if (slug == "overload") {
    // Past the knee with only backpressure: bounded queues, retries, drops.
    spec.phases = {{.duration = duration, .offered_per_sec = offered > 0 ? offered : 6000}};
  } else if (slug == "admitted") {
    // Same overload with the admission controller holding the door.
    spec.phases = {{.duration = duration, .offered_per_sec = offered > 0 ? offered : 6000}};
    spec.admission = {.policy = paradigm::AdmissionPolicy::kBoth,
                      .tokens_per_sec = 800,
                      .burst = 64,
                      .queue_limit = 48};
  } else if (slug == "brownout") {
    // Calm / surge / calm with a constant absolute interactive rate, shedding enabled.
    double surge = offered > 0 ? offered : 9600;
    spec.phases = {
        {.duration = duration / 4, .offered_per_sec = 1200, .interactive_fraction = 0.25},
        {.duration = duration / 2, .offered_per_sec = surge,
         .interactive_fraction = 300.0 / surge},
        {.duration = duration - duration / 4 - duration / 2, .offered_per_sec = 1200,
         .interactive_fraction = 0.25}};
    spec.brownout = true;
    spec.queue_capacity = 96;
    spec.brownout_high = 32;
    spec.brownout_low = 8;
  } else if (slug == "no-admission") {
    // Unbounded queues under overload — the configuration the backlog watchdog exists
    // to flag; pair with --watchdog to see it fire.
    spec.phases = {{.duration = duration, .offered_per_sec = offered > 0 ? offered : 6000}};
    spec.queue_capacity = 0;
  } else {
    std::fprintf(stderr,
                 "pcrsim: unknown load scenario '%s' "
                 "(steady, overload, admitted, brownout, no-admission)\n",
                 slug.c_str());
    return 2;
  }
  if (spec.shards < 1 || duration <= 0) {
    std::fprintf(stderr, "pcrsim: --load-scenario needs --shards >= 1 and --duration > 0\n");
    return 2;
  }

  std::unique_ptr<fault::Watchdog> watchdog;
  world::ServiceRunOptions options;
  bool want_watchdog = cli.watchdog;
  options.setup = [&injector, &watchdog, want_watchdog](pcr::Runtime& rt,
                                                        world::ServiceWorld& w) {
    if (injector.plan().enabled()) {
      injector.Reset();
      rt.scheduler().set_fault_injector(&injector);
    }
    if (want_watchdog) {
      fault::WatchdogOptions wd_options;
      wd_options.on_report = [](const fault::WatchdogReport& r) {
        std::printf("watchdog: [%s] t=%lldus %s\n",
                    std::string(fault::ReportKindName(r.kind)).c_str(),
                    static_cast<long long>(r.time), r.detail.c_str());
      };
      watchdog = std::make_unique<fault::Watchdog>(std::move(wd_options));
      for (int s = 0; s < w.shards(); ++s) {
        watchdog->WatchQueue("service.shard" + std::to_string(s) + ".queue",
                             [&w, s] { return w.shard_depth(s); });
      }
      watchdog->Start(rt);
    }
  };

  world::ServiceRunResult result = world::RunServiceLoad(spec, options);
  const world::ServiceTotals& t = result.totals;
  std::printf("load scenario %-12s shards=%d clients=%d seed=%llu paradigm=%s "
              "ran_for=%lldms\n",
              slug.c_str(), spec.shards, spec.clients,
              static_cast<unsigned long long>(spec.seed),
              std::string(world::ServiceParadigmName(spec.paradigm)).c_str(),
              static_cast<long long>(result.ran_for / pcr::kUsecPerMsec));
  PrintClassRow("interactive", result.interactive);
  PrintClassRow("bulk", result.bulk);
  std::printf("  arrivals=%lld admitted=%lld rejected_admission=%lld rejected_full=%lld\n"
              "  retries=%lld drops=%lld (interactive %lld) shed=%lld brownouts=%lld "
              "max_depth=%zu\n"
              "  trace_hash=%016llx\n",
              static_cast<long long>(t.arrivals), static_cast<long long>(t.admitted),
              static_cast<long long>(t.rejected_admission),
              static_cast<long long>(t.rejected_full), static_cast<long long>(t.retries),
              static_cast<long long>(t.drops), static_cast<long long>(t.drops_interactive),
              static_cast<long long>(t.shed), static_cast<long long>(t.brownouts), t.max_depth,
              static_cast<unsigned long long>(result.trace_hash));
  if (injector.plan().enabled()) {
    std::printf("fault plan \"%s\": %zu firing(s)\n", injector.plan().Encode().c_str(),
                injector.fired().size());
  }
  return 0;
}

void PrintSummaryRow(const world::ScenarioResult& r) {
  std::printf("%-26s forks/s=%5.1f switches/s=%6.0f waits/s=%5.0f timeouts=%3.0f%% "
              "ml/s=%7.0f contention=%.3f%% #cv=%lld #ml=%lld max-threads=%d\n",
              r.name.c_str(), r.summary.forks_per_sec, r.summary.switches_per_sec,
              r.summary.waits_per_sec, r.summary.timeout_fraction * 100,
              r.summary.ml_enters_per_sec, r.summary.contention_fraction * 100,
              static_cast<long long>(r.summary.distinct_cvs),
              static_cast<long long>(r.summary.distinct_mls), r.summary.max_live_threads);
}

// The scenario path: every Cedar and GVX scenario, or the one --scenario names, with the
// exports and printouts the command line asks for.
int RunScenarios(const Cli& cli, fault::Injector& injector) {
  world::ScenarioOptions options;
  options.duration = static_cast<pcr::Usec>(cli.duration_sec * pcr::kUsecPerSec);
  options.warmup = static_cast<pcr::Usec>(cli.warmup_sec * pcr::kUsecPerSec);
  options.seed = cli.seed;

  std::unique_ptr<fault::Watchdog> watchdog;  // recreated per scenario (Start is once-only)
  if (cli.fault_plan.has_value() || cli.watchdog) {
    bool want_watchdog = cli.watchdog;
    options.setup = [&injector, &watchdog, want_watchdog](pcr::Runtime& rt) {
      if (injector.plan().enabled()) {
        injector.Reset();  // each scenario replays the plan from consult zero
        rt.scheduler().set_fault_injector(&injector);
      }
      if (want_watchdog) {
        fault::WatchdogOptions wd_options;
        wd_options.on_report = [](const fault::WatchdogReport& r) {
          std::printf("watchdog: [%s] t=%lldus %s\n",
                      std::string(fault::ReportKindName(r.kind)).c_str(),
                      static_cast<long long>(r.time), r.detail.c_str());
        };
        watchdog = std::make_unique<fault::Watchdog>(std::move(wd_options));
        watchdog->Start(rt);
      }
    };
  }
  bool want_profile = cli.profile;
  if (cli.dump_ms.has_value() || want_profile || cli.save_trace.has_value() ||
      cli.chrome_trace.has_value() || cli.metrics_json.has_value()) {
    auto dump = cli.dump_ms;
    auto save_trace = cli.save_trace;
    auto chrome_trace = cli.chrome_trace;
    auto metrics_json = cli.metrics_json;
    size_t dump_limit = cli.dump_limit;
    options.inspect = [dump, want_profile, save_trace, chrome_trace, metrics_json,
                       dump_limit](pcr::Runtime& rt) {
      if (dump.has_value()) {
        std::printf("--- event history %ld..%ld ms ---\n", dump->first, dump->second);
        rt.tracer().Dump(std::cout, dump->first * pcr::kUsecPerMsec,
                         dump->second * pcr::kUsecPerMsec, dump_limit);
      }
      if (want_profile) {
        std::printf("--- per-thread traffic profile ---\n");
        analysis::ProfileSummary profile = analysis::ProfileThreads(rt.tracer());
        analysis::PrintThreadProfile(std::cout, profile, 15);
      }
      if (save_trace.has_value()) {
        if (trace::SaveTraceFile(*save_trace, rt.tracer())) {
          std::printf("trace written to %s (%zu events)\n", save_trace->c_str(),
                      rt.tracer().size());
        } else {
          std::fprintf(stderr, "pcrsim: could not write %s\n", save_trace->c_str());
        }
      }
      if (chrome_trace.has_value()) {
        if (trace::SaveChromeTraceFile(*chrome_trace, rt.tracer())) {
          std::printf("chrome trace written to %s (open in ui.perfetto.dev)\n",
                      chrome_trace->c_str());
        } else {
          std::fprintf(stderr, "pcrsim: could not write %s\n", chrome_trace->c_str());
        }
      }
      if (metrics_json.has_value()) {
        std::ofstream out(*metrics_json);
        if (out) {
          rt.scheduler().metrics().WriteJson(out);
          std::printf("metrics snapshot written to %s\n", metrics_json->c_str());
        } else {
          std::fprintf(stderr, "pcrsim: could not write %s\n", metrics_json->c_str());
        }
      }
    };
  }

  std::vector<world::ScenarioResult> results;
  if (cli.scenario.has_value()) {
    std::optional<world::Scenario> scenario = ParseScenario(*cli.scenario);
    if (!scenario.has_value()) {
      std::fprintf(stderr, "pcrsim: unknown scenario '%s' (try --list)\n",
                   cli.scenario->c_str());
      return 2;
    }
    results.push_back(world::RunScenario(*scenario, options));
  } else {
    for (world::Scenario scenario : world::AllScenarios()) {
      results.push_back(world::RunScenario(scenario, options));
    }
  }

  for (const world::ScenarioResult& r : results) {
    PrintSummaryRow(r);
  }
  if (injector.plan().enabled()) {
    std::printf("fault plan \"%s\": %zu firing(s) in the last run\n",
                injector.plan().Encode().c_str(), injector.fired().size());
  }
  if (cli.tables) {
    std::printf("\n");
    analysis::PrintTable1(std::cout, results);
    analysis::PrintTable2(std::cout, results);
    analysis::PrintTable3(std::cout, results);
    analysis::PrintTable4(std::cout, results);
  }
  if (cli.histogram) {
    for (const world::ScenarioResult& r : results) {
      std::printf("\nExecution intervals — %s (1 ms buckets):\n%s", r.name.c_str(),
                  r.summary.exec_intervals.Render(60).c_str());
    }
  }
  if (cli.genealogy) {
    for (const world::ScenarioResult& r : results) {
      std::printf("%-26s %s\n", r.name.c_str(), r.genealogy.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!ParseArgs(argc, argv, &cli)) {
    return 2;
  }
  if (argc == 1) {
    PrintUsage();
    return 0;
  }
  for (const std::string& flag : cli.given) {
    if (const char* why = WhyUnread(cli, flag)) {
      std::fprintf(stderr, "pcrsim: %s %s\n", flag.c_str(), why);
      return 2;
    }
  }
  if (cli.list) {
    for (const Slug& s : kSlugs) {
      std::printf("%-14s %s\n", s.name, std::string(world::ScenarioName(s.scenario)).c_str());
    }
    return 0;
  }

  fault::Injector injector;
  try {
    if (cli.fault_plan.has_value()) {
      injector.set_plan(fault::Plan::Decode(*cli.fault_plan));
    }
    return cli.load_scenario.has_value() ? RunLoadScenario(cli, injector)
                                         : RunScenarios(cli, injector);
  } catch (const pcr::ForkFailed& e) {
    // A FORK the fault plan failed where nothing handles the error, such as one the world
    // makes from the host while it builds itself.
    std::fprintf(stderr, "pcrsim: %s\n", e.what());
    return 1;
  } catch (const pcr::UsageError& e) {
    std::fprintf(stderr, "pcrsim: %s\n", e.what());
    return 2;
  }
}
