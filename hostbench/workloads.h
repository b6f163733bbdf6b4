// The four benchmark workloads. Each drives src/ only through its public entry points —
// world::RunScenario, explore::Explorer::Explore, world::RunServiceLoad and
// explore::Campaign::Run — and times every call from outside, at the call boundary.
//
// A pass runs the workload's whole input set once; every pass of a run repeats the same
// inputs, so the first pass fixes each op's reference output and every later op must
// reproduce it exactly (the correctness check behind `failed`).

#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hostbench/bench_util.h"
#include "src/explore/explorer.h"
#include "src/pcr/runtime.h"
#include "src/world/scenarios.h"
#include "src/world/service_world.h"

namespace hostbench {

// Per-pass input sizes. Smoke() shrinks every workload to a few seconds in total.
struct Sizes {
  pcr::Usec scenario_duration = 30 * pcr::kUsecPerSec;  // pcrsim --all's window
  pcr::Usec scenario_warmup = 2 * pcr::kUsecPerSec;
  size_t scenario_count = 0;  // 0: all of world::AllScenarios()
  int explore_seeds = 24;     // explore seeds per pass, each run on every explore scenario
  int explore_budget = 2000;
  pcr::Usec service_duration = 4 * pcr::kUsecPerSec;  // offered-load phase per sweep cell
  int campaign_seeds = 40;                            // Campaign::Run calls per pass
  int campaign_rounds = 10;

  static Sizes Smoke();
};

struct NamedValue {
  std::string name;
  std::string unit;
  double value = 0;
};

struct PassStats {
  double work = 0;    // work units completed (see Workload::work_unit)
  double wall_s = 0;  // summed op wall time; the benchmark's own checks are excluded
  double cpu_s = 0;   // summed process CPU time of the ops, every thread included
  int ops = 0;
  int failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // The unit of PassStats::work: "vsec" (virtual seconds simulated), "sched" (explored
  // schedules) or "input" (campaign inputs executed).
  virtual const char* work_unit() const = 0;
  // Runs every input once. With spans enabled, each op is a span under `parent`.
  virtual PassStats RunPass(SpanLog& spans, int parent) = 0;
  // The exact, host-independent results of the inputs (valid after one pass).
  virtual std::vector<NamedValue> VirtualMetrics() const = 0;

 protected:
  // Compares an op's output with the one its input produced on the first pass.
  bool Check(size_t input, const std::string& output);

 private:
  std::vector<std::optional<std::string>> reference_;
};

// Inputs are derived from the workload seed alone; `index` picks one stream per input.
uint64_t DeriveSeed(uint64_t seed, uint64_t index);

// paper_tables: world::RunScenario over the Table 1-3 rows.
class PaperTables : public Workload {
 public:
  PaperTables(uint64_t seed, const Sizes& sizes);

  const char* work_unit() const override { return "vsec"; }
  PassStats RunPass(SpanLog& spans, int parent) override;
  std::vector<NamedValue> VirtualMetrics() const override;

  // Extra work for the inspect hook (trace analysis probes); its time is excluded like the
  // hash check's.
  std::function<void(pcr::Runtime&)> extra_inspect;
  // Scheduler::fiber_switches() summed over the last pass.
  int64_t last_fiber_switches = 0;

 private:
  struct Input {
    world::Scenario scenario;
    uint64_t seed;
  };
  Sizes sizes_;
  std::vector<Input> inputs_;
  std::vector<world::ScenarioResult> results_;
};

// explore_2k: serial explore::Explorer::Explore calls at budget 2000.
class ExploreBatch : public Workload {
 public:
  ExploreBatch(uint64_t seed, const Sizes& sizes);

  const char* work_unit() const override { return "sched"; }
  PassStats RunPass(SpanLog& spans, int parent) override;
  std::vector<NamedValue> VirtualMetrics() const override;

  // The A/B switches; results must not change with either.
  bool checkpoint = true;
  bool dpor = true;
  // Profile counters summed over the last pass.
  explore::ExploreProfile last_profile;
  int64_t last_schedules = 0;

 private:
  struct Input {
    size_t scenario;
    uint64_t seed;
  };
  Sizes sizes_;
  std::vector<Input> inputs_;
  int64_t failures_found_ = 0;
  int64_t distinct_schedules_ = 0;
};

// service_sweep: world::RunServiceLoad over paradigm x offered load.
class ServiceSweep : public Workload {
 public:
  ServiceSweep(uint64_t seed, const Sizes& sizes);

  const char* work_unit() const override { return "vsec"; }
  PassStats RunPass(SpanLog& spans, int parent) override;
  std::vector<NamedValue> VirtualMetrics() const override;

  // Wall ms per virtual second of the last pass, per paradigm (ServiceParadigm order), and
  // the trace events its runs recorded.
  double last_ms_per_vsec[3] = {0, 0, 0};
  int64_t last_events = 0;

 private:
  Sizes sizes_;
  std::vector<world::ServiceSpec> cells_;
  std::vector<world::ServiceRunResult> results_;
};

// campaign: explore::Campaign::Run with an in-memory corpus.
class CampaignBatch : public Workload {
 public:
  CampaignBatch(uint64_t seed, const Sizes& sizes);

  const char* work_unit() const override { return "input"; }
  PassStats RunPass(SpanLog& spans, int parent) override;
  std::vector<NamedValue> VirtualMetrics() const override;

  // WorkerPool size; the corpus must come out the same at any value. The timed workload runs
  // one worker: at two, wall time on a shared 4-vCPU host swung by 25-40% between runs, far
  // outside any bound. The layer suite times the pool at two against one.
  int workers = 1;
  int64_t last_corpus_entries = 0;
  int64_t last_rounds = 0;

 private:
  Sizes sizes_;
  std::vector<uint64_t> seeds_;
  int64_t coverage_points_ = 0;
};

// Names in run order: paper_tables, explore_2k, service_sweep, campaign.
const std::vector<std::string>& WorkloadNames();
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Sizes& sizes);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H_
