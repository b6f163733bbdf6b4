#include "hostbench/workloads.h"

#include <string>
#include <utility>

#include "src/explore/campaign.h"
#include "src/explore/hash.h"
#include "src/explore/scenarios.h"

namespace hostbench {

namespace {

constexpr double kNsPerSec = 1e9;

double Seconds(int64_t ns) { return static_cast<double>(ns) / kNsPerSec; }

double Vsec(pcr::Usec us) { return static_cast<double>(us) / pcr::kUsecPerSec; }

void AddOp(PassStats* pass, double work, double wall_s, double cpu_s, bool ok) {
  pass->work += work;
  pass->wall_s += wall_s;
  pass->cpu_s += cpu_s;
  pass->ops += 1;
  pass->failed += ok ? 0 : 1;
}

// Hook timestamps of one world run: the Runtime's setup hook, and the bounds of the inspect
// hook, whose work belongs to the benchmark and is subtracted from the op.
struct HookTimes {
  int64_t setup_ns = 0;
  int64_t inspect_begin_ns = 0;
  int64_t inspect_end_ns = 0;
  double inspect_cpu_s = 0;

  // Splits the op span [t0, t1] into its three phases plus the benchmark's check.
  void AddChildren(SpanLog& spans, int op, const char* construct, const char* run,
                   const char* teardown, int64_t t0, int64_t t1) const {
    spans.Add(construct, op, t0, setup_ns);
    spans.Add(run, op, setup_ns, inspect_begin_ns);
    spans.Add("bench.inspect", op, inspect_begin_ns, inspect_end_ns);
    spans.Add(teardown, op, inspect_end_ns, t1);
  }
};

}  // namespace

Sizes Sizes::Smoke() {
  Sizes s;
  s.scenario_duration = pcr::kUsecPerSec;
  s.scenario_warmup = 200 * pcr::kUsecPerMsec;
  s.scenario_count = 3;
  s.explore_seeds = 1;
  s.explore_budget = 100;
  s.service_duration = 300 * pcr::kUsecPerMsec;
  s.campaign_seeds = 1;
  s.campaign_rounds = 3;
  return s;
}

bool Workload::Check(size_t input, const std::string& output) {
  if (input >= reference_.size()) {
    reference_.resize(input + 1);
  }
  if (!reference_[input]) {
    reference_[input] = output;
    return true;
  }
  return *reference_[input] == output;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  // splitmix64 over (seed, index): well-spread streams from consecutive indices.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + (index + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) & 0x7fffffffffffull;  // positive and readable in repro strings
}

// ---------------------------------------------------------------------------------------------
// paper_tables

PaperTables::PaperTables(uint64_t seed, const Sizes& sizes) : sizes_(sizes) {
  std::vector<world::Scenario> all = world::AllScenarios();
  if (sizes.scenario_count > 0 && sizes.scenario_count < all.size()) {
    all.resize(sizes.scenario_count);
  }
  for (size_t i = 0; i < all.size(); ++i) {
    inputs_.push_back(Input{all[i], DeriveSeed(seed, i)});
  }
}

PassStats PaperTables::RunPass(SpanLog& spans, int parent) {
  PassStats pass;
  last_fiber_switches = 0;
  results_.resize(inputs_.size());
  for (size_t i = 0; i < inputs_.size(); ++i) {
    world::ScenarioOptions options;
    options.duration = sizes_.scenario_duration;
    options.warmup = sizes_.scenario_warmup;
    options.seed = inputs_[i].seed;
    HookTimes hooks;
    uint64_t hash = 0;
    options.setup = [&hooks](pcr::Runtime&) { hooks.setup_ns = NowNs(); };
    options.inspect = [&](pcr::Runtime& rt) {
      hooks.inspect_begin_ns = NowNs();
      const double cpu0 = ThreadCpuSeconds();
      hash = explore::TraceHash(rt.tracer());
      last_fiber_switches += rt.scheduler().fiber_switches();
      if (extra_inspect) {
        extra_inspect(rt);
      }
      hooks.inspect_cpu_s = ThreadCpuSeconds() - cpu0;
      hooks.inspect_end_ns = NowNs();
    };

    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    world::ScenarioResult result = world::RunScenario(inputs_[i].scenario, options);
    const int64_t t1 = NowNs();
    const double cpu1 = ProcessCpuSeconds();

    const int64_t check_ns = hooks.inspect_end_ns - hooks.inspect_begin_ns;
    const std::string row = std::to_string(hash) + "\n" + result.summary.ToString() + "\n" +
                            std::to_string(result.x_requests) + " " +
                            std::to_string(result.x_flushes) + " " +
                            std::to_string(result.echo_mean_us) + " " +
                            std::to_string(result.echo_max_us) + " " +
                            std::to_string(result.eternal_threads);
    AddOp(&pass, Vsec(options.warmup + options.duration), Seconds(t1 - t0 - check_ns),
          cpu1 - cpu0 - hooks.inspect_cpu_s, Check(i, row));
    if (spans.enabled()) {
      int op = spans.Add("world.RunScenario", parent, t0, t1);
      hooks.AddChildren(spans, op, "pcr.runtime.construct", "world.scenario.build_run_summarize",
                        "world.scenario.teardown", t0, t1);
    }
    results_[i] = std::move(result);
  }
  return pass;
}

std::vector<NamedValue> PaperTables::VirtualMetrics() const {
  double echo_sum = 0;
  int echo_rows = 0;
  for (const world::ScenarioResult& r : results_) {
    if (r.x_requests > 0) {
      echo_sum += static_cast<double>(r.echo_mean_us) / pcr::kUsecPerMsec;
      ++echo_rows;
    }
  }
  return {{"virt_echo_ms", "ms", echo_rows > 0 ? echo_sum / echo_rows : 0}};
}

// ---------------------------------------------------------------------------------------------
// explore_2k

ExploreBatch::ExploreBatch(uint64_t seed, const Sizes& sizes) : sizes_(sizes) {
  const size_t scenarios = explore::Scenarios().size();
  for (int k = 0; k < sizes.explore_seeds; ++k) {
    uint64_t explore_seed = DeriveSeed(seed, 1000 + static_cast<uint64_t>(k));
    for (size_t s = 0; s < scenarios; ++s) {
      inputs_.push_back(Input{s, explore_seed});
    }
  }
}

PassStats ExploreBatch::RunPass(SpanLog& spans, int parent) {
  PassStats pass;
  last_profile = explore::ExploreProfile{};
  last_schedules = 0;
  failures_found_ = 0;
  distinct_schedules_ = 0;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const explore::BugScenario& scenario = explore::Scenarios()[inputs_[i].scenario];
    explore::ExploreOptions options = scenario.options;
    options.budget = sizes_.explore_budget;
    options.seed = inputs_[i].seed;
    options.workers = 1;
    options.checkpoint = options.checkpoint && checkpoint;
    options.dpor = options.dpor && dpor;

    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    explore::Explorer explorer(options);
    explore::ExploreResult result = explorer.Explore(scenario.body);
    const int64_t t1 = NowNs();
    const double cpu1 = ProcessCpuSeconds();

    const bool found = !result.failures.empty();
    std::string signature = found ? "bug" : "clean";
    signature += " baseline=" + std::to_string(result.baseline.trace_hash);
    for (const explore::ScheduleOutcome& failure : result.failures) {
      signature += " " + failure.repro + "#" + std::to_string(failure.trace_hash);
    }
    const bool ok = Check(i, signature) && found == scenario.expect_bug;
    AddOp(&pass, result.schedules_run, Seconds(t1 - t0), cpu1 - cpu0, ok);

    const explore::ExploreProfile& p = result.profile;
    if (spans.enabled()) {
      int op = spans.Add("explore.Explore", parent, t0, t1);
      // The phases run back to back. run and detector are sums over every schedule; nearly
      // all schedules execute in the sweep, so they are laid end to end inside it (clipped to
      // it if the baseline's and minimisation's share pushes them past its end).
      auto ns = [](double sec) { return static_cast<int64_t>(sec * kNsPerSec); };
      const int64_t sweep_begin = t0 + ns(p.baseline_sec);
      const int64_t sweep_end = sweep_begin + ns(p.sweep_sec);
      spans.Add("explore.baseline", op, t0, sweep_begin);
      int sweep = spans.Add("explore.sweep", op, sweep_begin, sweep_end);
      spans.Add("explore.minimize", op, sweep_end, sweep_end + ns(p.minimize_sec));
      const int64_t run_end = sweep_begin + ns(p.run_sec);
      spans.Add("explore.run", sweep, sweep_begin, run_end);
      spans.Add("explore.detector", sweep, run_end, run_end + ns(p.detector_sec));
    }
    explore::ExploreProfile& sum = last_profile;
    sum.total_sec += p.total_sec;
    sum.baseline_sec += p.baseline_sec;
    sum.sweep_sec += p.sweep_sec;
    sum.minimize_sec += p.minimize_sec;
    sum.run_sec += p.run_sec;
    sum.detector_sec += p.detector_sec;
    sum.fiber_switches += p.fiber_switches;
    sum.stack_acquires += p.stack_acquires;
    sum.stack_pool_hits += p.stack_pool_hits;
    sum.checkpoint_saves += p.checkpoint_saves;
    sum.checkpoint_resumes += p.checkpoint_resumes;
    sum.checkpoint_bytes += p.checkpoint_bytes;
    sum.pruned_schedules += p.pruned_schedules;
    sum.dpor_pruned += p.dpor_pruned;
    sum.drain_spliced += p.drain_spliced;
    last_schedules += result.schedules_run;
    failures_found_ += static_cast<int64_t>(result.failures.size());
    distinct_schedules_ += result.distinct_schedules;
  }
  return pass;
}

std::vector<NamedValue> ExploreBatch::VirtualMetrics() const {
  return {{"virt_failures_found", "count", static_cast<double>(failures_found_)},
          {"virt_distinct_schedules", "count", static_cast<double>(distinct_schedules_)}};
}

// ---------------------------------------------------------------------------------------------
// service_sweep

ServiceSweep::ServiceSweep(uint64_t seed, const Sizes& sizes) : sizes_(sizes) {
  // BENCH_load's grid: three paradigms at 1500/3000/6000 offered per second, 2000 clients on
  // four shards, a deep-but-bounded queue and no admission control.
  const world::ServiceParadigm paradigms[] = {world::ServiceParadigm::kSerializer,
                                              world::ServiceParadigm::kWorkQueue,
                                              world::ServiceParadigm::kPipeline};
  for (world::ServiceParadigm paradigm : paradigms) {
    for (double offered : {1500.0, 3000.0, 6000.0}) {
      world::ServiceSpec spec;
      spec.clients = 2000;
      spec.shards = 4;
      spec.seed = DeriveSeed(seed, cells_.size());
      spec.paradigm = paradigm;
      spec.phases = {{.duration = sizes.service_duration, .offered_per_sec = offered}};
      spec.queue_capacity = 256;
      cells_.push_back(spec);
    }
  }
}

PassStats ServiceSweep::RunPass(SpanLog& spans, int parent) {
  PassStats pass;
  last_events = 0;
  double paradigm_wall[3] = {0, 0, 0};
  double paradigm_vsec[3] = {0, 0, 0};
  results_.resize(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    world::ServiceRunOptions options;
    HookTimes hooks;
    options.setup = [&hooks](pcr::Runtime&, world::ServiceWorld&) { hooks.setup_ns = NowNs(); };
    options.inspect = [&](pcr::Runtime& rt, world::ServiceWorld&) {
      hooks.inspect_begin_ns = NowNs();
      last_events += static_cast<int64_t>(rt.tracer().size());
      hooks.inspect_end_ns = NowNs();
    };

    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    world::ServiceRunResult result = world::RunServiceLoad(cells_[i], options);
    const int64_t t1 = NowNs();
    const double cpu1 = ProcessCpuSeconds();

    const double wall = Seconds(t1 - t0 - (hooks.inspect_end_ns - hooks.inspect_begin_ns));
    const double vsec = Vsec(result.ran_for);
    const std::string signature = std::to_string(result.trace_hash);
    AddOp(&pass, vsec, wall, cpu1 - cpu0, Check(i, signature));
    const size_t paradigm = static_cast<size_t>(cells_[i].paradigm);
    paradigm_wall[paradigm] += wall;
    paradigm_vsec[paradigm] += vsec;
    if (spans.enabled()) {
      int op = spans.Add("world.RunServiceLoad", parent, t0, t1);
      hooks.AddChildren(spans, op, "world.service.construct_build",
                        "world.service.run_summarize_hash", "world.service.teardown", t0, t1);
    }
    results_[i] = result;
  }
  for (size_t p = 0; p < 3; ++p) {
    last_ms_per_vsec[p] = paradigm_vsec[p] > 0 ? paradigm_wall[p] * 1e3 / paradigm_vsec[p] : 0;
  }
  return pass;
}

std::vector<NamedValue> ServiceSweep::VirtualMetrics() const {
  double p99_sum = 0;
  double arrivals = 0;
  double completed = 0;
  double drops = 0;
  for (const world::ServiceRunResult& r : results_) {
    p99_sum += static_cast<double>(r.interactive.p99) / pcr::kUsecPerMsec;
    arrivals += static_cast<double>(r.totals.arrivals);
    completed += static_cast<double>(r.totals.completed_interactive + r.totals.completed_bulk);
    drops += static_cast<double>(r.totals.drops);
  }
  const double cells = results_.empty() ? 1.0 : static_cast<double>(results_.size());
  return {{"virt_int_p99_ms", "ms", p99_sum / cells},
          {"virt_goodput_frac", "frac", arrivals > 0 ? completed / arrivals : 0},
          {"virt_drop_frac", "frac", arrivals > 0 ? drops / arrivals : 0}};
}

// ---------------------------------------------------------------------------------------------
// campaign

CampaignBatch::CampaignBatch(uint64_t seed, const Sizes& sizes)
    : sizes_(sizes) {
  for (int k = 0; k < sizes.campaign_seeds; ++k) {
    seeds_.push_back(DeriveSeed(seed, 2000 + static_cast<uint64_t>(k)));
  }
}

PassStats CampaignBatch::RunPass(SpanLog& spans, int parent) {
  PassStats pass;
  coverage_points_ = 0;
  last_corpus_entries = 0;
  last_rounds = 0;
  for (size_t i = 0; i < seeds_.size(); ++i) {
    explore::CampaignOptions options;
    options.corpus_dir = "";
    options.rounds = sizes_.campaign_rounds;
    options.seed = seeds_[i];
    options.workers = workers;

    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    explore::Campaign campaign(explore::Scenarios(), options);
    const explore::CampaignStatus& status = campaign.Run();
    const int64_t t1 = NowNs();
    const double cpu1 = ProcessCpuSeconds();

    std::string signature = std::to_string(status.coverage_points) + " " +
                            std::to_string(status.corpus_entries) + " " +
                            std::to_string(status.crash_entries) + " " +
                            std::to_string(status.inputs_run);
    for (const std::string& key : status.failure_keys) {
      signature += " " + key;
    }
    const bool ok = status.ok() && Check(i, signature);
    AddOp(&pass, static_cast<double>(status.inputs_run), Seconds(t1 - t0), cpu1 - cpu0, ok);
    spans.Add("explore.Campaign.Run", parent, t0, t1);
    coverage_points_ += static_cast<int64_t>(status.coverage_points);
    last_corpus_entries += static_cast<int64_t>(status.corpus_entries);
    last_rounds += status.rounds_completed;
  }
  return pass;
}

std::vector<NamedValue> CampaignBatch::VirtualMetrics() const {
  return {{"coverage_points", "count", static_cast<double>(coverage_points_)}};
}

// ---------------------------------------------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_tables", "explore_2k", "service_sweep",
                                                 "campaign"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Sizes& sizes) {
  if (name == "paper_tables") {
    return std::make_unique<PaperTables>(seed, sizes);
  }
  if (name == "explore_2k") {
    return std::make_unique<ExploreBatch>(seed, sizes);
  }
  if (name == "service_sweep") {
    return std::make_unique<ServiceSweep>(seed, sizes);
  }
  if (name == "campaign") {
    return std::make_unique<CampaignBatch>(seed, sizes);
  }
  return nullptr;
}

}  // namespace hostbench
