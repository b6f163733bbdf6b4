#include "src/explore/campaign.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "src/explore/pool.h"
#include "src/pcr/errors.h"
#include "src/trace/json.h"

namespace explore {

namespace {

// Rounds between two rewrites of the status JSON (it is also written at the end).
constexpr int kStatusEvery = 10;
// Corpus admission stops past this many entries (coverage is still counted).
constexpr size_t kMaxCorpusEntries = 4096;

std::vector<Decision> TrimTrailingDefaults(std::vector<Decision> decisions) {
  while (!decisions.empty() && decisions.back() == 0) {
    decisions.pop_back();
  }
  return decisions;
}

// Same identity SameFailure uses: the first detector finding when there is one, otherwise the
// first assertion message (stable text per Check call site).
std::string FailureKey(const std::string& scenario, const ScheduleOutcome& outcome) {
  std::string key = scenario + "|";
  if (!outcome.findings.empty()) {
    const Finding& f = outcome.findings.front();
    return key + std::string(FindingKindName(f.kind)) + "@" + std::to_string(f.object);
  }
  return key + (outcome.failures.empty() ? "unknown" : outcome.failures.front());
}

}  // namespace

// ---------------------------------------------------------------- CampaignInput

std::string CampaignInput::Encode() const {
  return EncodeRepro(scenario, runtime_seed, decisions,
                     fault_plan.enabled() ? fault_plan.Encode() : std::string());
}

bool CampaignInput::Decode(const std::string& repro, CampaignInput* out) {
  CampaignInput in;
  std::string fault_text;
  if (!DecodeRepro(repro, &in.scenario, &in.runtime_seed, &in.decisions, &fault_text)) {
    return false;
  }
  try {
    in.fault_plan = fault::Plan::Decode(fault_text);
  } catch (const pcr::UsageError&) {
    return false;
  }
  *out = std::move(in);
  return true;
}

// ---------------------------------------------------------------------- Mutator

Mutator::Mutator(uint64_t seed, size_t max_decisions)
    : rng_(seed), max_decisions_(std::max<size_t>(max_decisions, 16)) {}

CampaignInput Mutator::Mutate(const CampaignInput& parent, const CampaignInput* splice) {
  CampaignInput out = parent;
  auto draw = [this](uint64_t n) -> uint64_t { return n == 0 ? 0 : rng_() % n; };
  // Decision values are biased toward the ones the perturber protocol acts on: 1 fires a
  // forced preempt (or picks ready-queue candidate 1), small values pick nearby candidates,
  // and an occasional wild nibble probes wide tie-breaks.
  auto rand_value = [&]() -> Decision {
    uint64_t r = draw(10);
    if (r < 5) {
      return 1;
    }
    if (r < 8) {
      return static_cast<Decision>(draw(4));
    }
    return static_cast<Decision>(draw(16));
  };

  int ops = 1 + static_cast<int>(draw(3));  // AFL-style stacked havoc, 1-3 ops
  for (int op = 0; op < ops; ++op) {
    switch (draw(7)) {
      case 0:  // flip one decision
        if (!out.decisions.empty()) {
          out.decisions[draw(out.decisions.size())] = rand_value();
        } else {
          out.decisions.push_back(rand_value());
        }
        break;
      case 1: {  // append a tail of fresh decisions
        size_t tail = 1 + draw(48);
        while (tail-- > 0 && out.decisions.size() < max_decisions_) {
          out.decisions.push_back(draw(3) == 0 ? rand_value() : 0);
        }
        break;
      }
      case 2:  // truncate to a prefix
        if (!out.decisions.empty()) {
          out.decisions.resize(draw(out.decisions.size()));
        }
        break;
      case 3:  // splice: parent prefix + partner suffix (same scenario only)
        if (splice != nullptr && splice->scenario == out.scenario &&
            !splice->decisions.empty()) {
          size_t cut = draw(out.decisions.size() + 1);
          size_t from = draw(splice->decisions.size());
          out.decisions.resize(cut);
          for (size_t i = from;
               i < splice->decisions.size() && out.decisions.size() < max_decisions_; ++i) {
            out.decisions.push_back(splice->decisions[i]);
          }
        }
        break;
      case 4:  // re-sweep the runtime seed
        out.runtime_seed = rng_() | 1;
        break;
      case 5:  // perturb the fault plan
        out.fault_plan = fault::MutatePlan(out.fault_plan, rng_);
        break;
      default:  // zero one non-default decision (gentle shrink pressure)
        if (!out.decisions.empty()) {
          out.decisions[draw(out.decisions.size())] = 0;
        }
        break;
    }
  }
  out.decisions = TrimTrailingDefaults(std::move(out.decisions));
  if (!out.fault_plan.enabled()) {
    // A disarmed plan is inert whatever its seed; canonicalize so Encode/Decode round-trips.
    out.fault_plan = fault::Plan();
  }
  return out;
}

// --------------------------------------------------------------------- Campaign

Campaign::Campaign(std::vector<BugScenario> scenarios, CampaignOptions options)
    : options_(std::move(options)),
      corpus_(options_.corpus_dir, options_.read_only),
      master_(options_.seed) {
  int workers = options_.workers > 0 ? options_.workers : WorkerPool::HardwareWorkers();
  for (int w = 0; w < workers; ++w) {
    arenas_.push_back(std::make_unique<WorkerArena>());
  }
  slots_.reserve(scenarios.size());
  for (BugScenario& scenario : scenarios) {
    ScenarioSlot slot;
    slot.scenario = std::move(scenario);
    ExploreOptions opts = slot.scenario.options;
    opts.scenario_name = slot.scenario.name;
    opts.collect_coverage = true;
    opts.coverage_salt = Corpus::ContentHash(slot.scenario.name);
    slot.explorer = std::make_unique<Explorer>(opts);
    slots_.push_back(std::move(slot));
  }
}

Campaign::ScenarioSlot* Campaign::FindSlot(const std::string& name) {
  for (ScenarioSlot& slot : slots_) {
    if (slot.scenario.name == name) {
      return &slot;
    }
  }
  return nullptr;
}

bool Campaign::MergeCoverage(const ScheduleOutcome& outcome) {
  bool any_new = false;
  for (uint64_t key : outcome.coverage) {
    any_new = coverage_.insert(key).second || any_new;
  }
  status_.coverage_points = coverage_.size();
  return any_new;
}

void Campaign::NoteFailure(ScenarioSlot& slot, const ScheduleOutcome& outcome) {
  if (!failure_keys_.insert(FailureKey(slot.scenario.name, outcome)).second) {
    return;
  }
  status_.distinct_failures = failure_keys_.size();
  // A new bug: shrink it with the standard Minimize path and pin it under crashes/. The
  // minimized input's own coverage joins the map so a later replay-only pass over this corpus
  // reaches the exact same coverage count (campaign_test relies on that fixed point).
  ScheduleOutcome minimized =
      slot.explorer->Minimize(outcome, slot.scenario.body, arenas_[0].get());
  if (minimized.failed) {
    MergeCoverage(minimized);
  }
  corpus_.AddCrash(minimized.failed ? minimized.repro : outcome.repro);
  status_.crash_entries = corpus_.crashes().size();
}

void Campaign::RunBatch(const std::vector<std::string>& repros, bool admit,
                        bool validate_replay) {
  struct Task {
    const std::string* repro = nullptr;
    ScenarioSlot* slot = nullptr;
  };
  std::vector<Task> tasks;
  tasks.reserve(repros.size());
  for (const std::string& repro : repros) {
    CampaignInput input;
    if (!CampaignInput::Decode(repro, &input)) {
      status_.errors.push_back("malformed corpus entry: " + repro);
      continue;
    }
    ScenarioSlot* slot = FindSlot(input.scenario);
    if (slot == nullptr) {
      status_.errors.push_back("corpus entry names unknown scenario '" + input.scenario +
                               "': " + repro);
      continue;
    }
    tasks.push_back(Task{&repro, slot});
  }

  std::vector<ScheduleOutcome> outcomes(tasks.size());
  std::vector<std::string> run_errors(tasks.size());
  WorkerPool pool(static_cast<int>(arenas_.size()));
  pool.Run(tasks.size(), [&](size_t worker, size_t k) {
    Explorer& explorer = *tasks[k].slot->explorer;
    const TestBody& body = tasks[k].slot->scenario.body;
    WorkerArena* arena = arenas_[worker].get();
    try {
      outcomes[k] = explorer.Replay(*tasks[k].repro, body, nullptr, arena);
      if (validate_replay) {
        ScheduleOutcome again = explorer.Replay(*tasks[k].repro, body, nullptr, arena);
        if (again.trace_hash != outcomes[k].trace_hash) {
          run_errors[k] = "nondeterministic replay of " + *tasks[k].repro;
        }
      }
    } catch (const std::exception& e) {
      run_errors[k] = std::string("replay threw: ") + e.what() + " for " + *tasks[k].repro;
    }
  });

  // Serial merge in task-index order: this is the only place the corpus and coverage map
  // mutate, so evolution cannot depend on which worker ran what when.
  for (size_t k = 0; k < tasks.size(); ++k) {
    if (!run_errors[k].empty()) {
      status_.errors.push_back(run_errors[k]);
      continue;
    }
    ++status_.inputs_run;
    bool new_coverage = MergeCoverage(outcomes[k]);
    if (admit && new_coverage && corpus_.entries().size() < kMaxCorpusEntries) {
      corpus_.Add(outcomes[k].repro);
      status_.corpus_entries = corpus_.entries().size();
    }
    if (outcomes[k].failed) {
      NoteFailure(*tasks[k].slot, outcomes[k]);
    }
  }
  status_.corpus_entries = corpus_.entries().size();
  status_.crash_entries = corpus_.crashes().size();
}

const CampaignStatus& Campaign::Run() {
  const auto start = std::chrono::steady_clock::now();
  status_ = CampaignStatus{};
  coverage_.clear();
  failure_keys_.clear();

  std::vector<std::string> load_errors;
  if (!corpus_.Load(&load_errors)) {
    status_.errors = std::move(load_errors);
    MaybeWriteStatus(true);
    return status_;
  }
  // Unreadable/malformed individual entries are reported but do not kill the campaign.
  status_.errors.insert(status_.errors.end(), load_errors.begin(), load_errors.end());
  std::vector<std::string> loaded_entries = corpus_.entries();
  std::vector<std::string> loaded_crashes = corpus_.crashes();

  // Phase A: every scenario's unperturbed baseline. From an empty corpus this is what seeds
  // the first coverage and the first corpus entries.
  std::vector<std::string> baselines;
  for (ScenarioSlot& slot : slots_) {
    CampaignInput input;
    input.scenario = slot.scenario.name;
    input.runtime_seed = slot.scenario.options.base_config.seed;
    input.fault_plan = slot.scenario.options.fault_plan;
    baselines.push_back(input.Encode());
  }
  RunBatch(baselines, /*admit=*/true, /*validate_replay=*/false);

  // Phase B: replay the loaded corpus, twice per entry (determinism gate), and require every
  // crashes/ entry to still fail — the committed-corpus CI contract.
  RunBatch(loaded_entries, /*admit=*/true, /*validate_replay=*/true);
  for (const std::string& crash : loaded_crashes) {
    CampaignInput input;
    if (!CampaignInput::Decode(crash, &input)) {
      status_.errors.push_back("malformed crash entry: " + crash);
      continue;
    }
    ScenarioSlot* slot = FindSlot(input.scenario);
    if (slot == nullptr) {
      status_.errors.push_back("crash entry names unknown scenario '" + input.scenario +
                               "': " + crash);
      continue;
    }
    ScheduleOutcome outcome =
        slot->explorer->Replay(crash, slot->scenario.body, nullptr, arenas_[0].get());
    ++status_.inputs_run;
    MergeCoverage(outcome);
    if (!outcome.failed) {
      status_.errors.push_back("crash entry no longer fails: " + crash);
      continue;
    }
    // Register the bug identity without re-minimizing (the entry is already minimal).
    failure_keys_.insert(FailureKey(slot->scenario.name, outcome));
    status_.distinct_failures = failure_keys_.size();
  }
  MaybeWriteStatus(true);

  // Phase C: coverage-guided mutation rounds.
  Mutator mutator(options_.seed ^ 0x9e3779b97f4a7c15ull);
  for (int round = 0; round < options_.rounds; ++round) {
    const std::vector<std::string>& parents = corpus_.entries();
    if (parents.empty()) {
      status_.errors.push_back("campaign has no runnable corpus entries");
      break;
    }
    std::vector<std::string> batch;
    batch.reserve(static_cast<size_t>(options_.batch));
    for (int b = 0; b < options_.batch; ++b) {
      CampaignInput parent;
      if (!CampaignInput::Decode(parents[master_() % parents.size()], &parent)) {
        continue;  // cannot happen: admission re-encodes canonically
      }
      CampaignInput partner;
      const CampaignInput* splice = nullptr;
      if (parents.size() > 1 && master_() % 2 == 0 &&
          CampaignInput::Decode(parents[master_() % parents.size()], &partner)) {
        splice = &partner;
      }
      batch.push_back(mutator.Mutate(parent, splice).Encode());
    }
    RunBatch(batch, /*admit=*/true, /*validate_replay=*/false);
    ++status_.rounds_completed;
    MaybeWriteStatus(false);
  }

  status_.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (status_.wall_sec > 0) {
    status_.inputs_per_sec = static_cast<double>(status_.inputs_run) / status_.wall_sec;
  }
  MaybeWriteStatus(true);
  return status_;
}

void Campaign::MaybeWriteStatus(bool force) {
  status_.failure_keys.assign(failure_keys_.begin(), failure_keys_.end());
  if (options_.status_json_path.empty()) {
    return;
  }
  if (!force && status_.rounds_completed % kStatusEvery != 0) {
    return;
  }
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const ScenarioSlot& slot : slots_) {
    names.push_back(slot.scenario.name);
  }
  if (!WriteStatusJson(options_.status_json_path, status_, names)) {
    // Recorded once; a broken status path should fail the campaign loudly, not spam.
    std::string err = "cannot write status json: " + options_.status_json_path;
    if (std::find(status_.errors.begin(), status_.errors.end(), err) == status_.errors.end()) {
      status_.errors.push_back(err);
    }
  }
}

bool Campaign::WriteStatusJson(const std::string& path, const CampaignStatus& status,
                               const std::vector<std::string>& scenario_names) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  auto write_list = [&out](const std::vector<std::string>& items) {
    out << "[";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) {
        out << ", ";
      }
      trace::WriteJsonString(out, items[i]);
    }
    out << "]";
  };
  out << "{\n";
  out << "  \"rounds\": " << status.rounds_completed << ",\n";
  out << "  \"inputs_run\": " << status.inputs_run << ",\n";
  out << "  \"corpus_entries\": " << status.corpus_entries << ",\n";
  out << "  \"crash_entries\": " << status.crash_entries << ",\n";
  out << "  \"coverage_points\": " << status.coverage_points << ",\n";
  out << "  \"distinct_failures\": " << status.distinct_failures << ",\n";
  out << "  \"scenarios\": ";
  write_list(scenario_names);
  out << ",\n  \"failures\": ";
  write_list(status.failure_keys);
  out << ",\n  \"errors\": ";
  write_list(status.errors);
  char rate[64];
  std::snprintf(rate, sizeof(rate), "%.3f", status.wall_sec);
  out << ",\n  \"wall_sec\": " << rate << ",\n";
  std::snprintf(rate, sizeof(rate), "%.1f", status.inputs_per_sec);
  out << "  \"inputs_per_sec\": " << rate << "\n";
  out << "}\n";
  return out.good();
}

}  // namespace explore
