// Coverage-guided fault x schedule fuzzing campaign over the canned bug scenarios.
//
// The explorer (explorer.h) searches schedule space blindly: every Explore call draws fresh
// seeds and keeps nothing but failures. A Campaign closes the loop with a feedback signal and
// a corpus, turning the same machinery into a bug-mining service:
//
//   coverage  = prefix trace hashes (hash.h — partial executions count)
//             ∪ interleaving/lockset edges (detector.h CollectTraceCoverage)
//             ∪ fault-firing and watchdog-report keys (src/fault/watchdog.cc kinds ride in
//               kWatchdogReport trace events)
//
//   corpus    = inputs that discovered new coverage, one 5-field repro string per file
//               (corpus.h); failing inputs are minimized with Explorer::Minimize and kept
//               under crashes/.
//
//   mutation  = a seeded, wall-clock-free Mutator that splices decision prefixes between
//               corpus entries, flips/extends/truncates decisions, re-sweeps runtime seeds,
//               and perturbs fault plans via fault::MutatePlan.
//
// Rounds fan candidate executions across the explorer's WorkerPool, but every decision that
// shapes the corpus — candidate generation, coverage union, corpus admission, crash dedup,
// minimization — happens serially in candidate-index order, so corpus evolution is
// byte-identical at any worker count (the same contract Explorer::Explore keeps). Each pool
// worker replays on its own WorkerArena, kept for the campaign's lifetime, so an input's
// FORKs reuse the stacks and trace buffer its worker's previous inputs left behind.
//
// CLI: pcrcheck --campaign=DIR --campaign-rounds=N --campaign-status-json=FILE. docs/FUZZING.md
// is the field guide.

#ifndef SRC_EXPLORE_CAMPAIGN_H_
#define SRC_EXPLORE_CAMPAIGN_H_

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/explore/corpus.h"
#include "src/explore/explorer.h"
#include "src/explore/scenarios.h"
#include "src/fault/fault.h"

namespace explore {

// One fuzzing input, the decoded form of a 5-field repro string: which scenario to run, the
// runtime seed, the schedule-decision prefix (replayed verbatim, defaults past the end), and
// the fault plan.
struct CampaignInput {
  std::string scenario;
  uint64_t runtime_seed = 1;
  std::vector<Decision> decisions;
  fault::Plan fault_plan;

  std::string Encode() const;
  // Strict decode: false on malformed repro or fault-plan text (never throws).
  static bool Decode(const std::string& repro, CampaignInput* out);

  bool operator==(const CampaignInput&) const = default;
};

// Deterministic input mutator. Seeded once; every offspring is a pure function of the RNG
// stream, so campaigns are replayable and worker-count independent. `splice` (optional) must
// be from the same scenario: one mutation op grafts its decision suffix onto the parent's
// prefix.
class Mutator {
 public:
  explicit Mutator(uint64_t seed, size_t max_decisions = 2048);

  CampaignInput Mutate(const CampaignInput& parent, const CampaignInput* splice = nullptr);

 private:
  std::mt19937_64 rng_;
  size_t max_decisions_;
};

struct CampaignOptions {
  std::string corpus_dir;        // "" = in-memory corpus (tests)
  bool read_only = false;        // replay without writing (CI committed-corpus gate)
  int rounds = 100;              // mutation rounds; 0 = replay-only
  int batch = 16;                // candidates per round
  uint64_t seed = 1;             // master seed for parent picks + mutations
  int workers = 0;               // WorkerPool size (0 = hardware concurrency)
  std::string status_json_path;  // "" = no status file; rewritten every 10 rounds and at the end
};

// Rolling campaign state; also the schema of the status JSON (WriteStatusJson). Everything
// except wall_sec / inputs_per_sec (informational, wall-clock) is deterministic.
struct CampaignStatus {
  int rounds_completed = 0;
  int64_t inputs_run = 0;
  size_t corpus_entries = 0;
  size_t crash_entries = 0;
  size_t coverage_points = 0;
  size_t distinct_failures = 0;
  std::vector<std::string> failure_keys;  // sorted "scenario|bug identity" strings
  std::vector<std::string> errors;        // validation problems; non-empty fails the campaign
  double wall_sec = 0;
  double inputs_per_sec = 0;

  bool ok() const { return errors.empty(); }
};

class Campaign {
 public:
  // `scenarios` are copied; each gets a coverage-collecting Explorer built from its tuned
  // ExploreOptions (budget is ignored — the campaign replays single schedules).
  Campaign(std::vector<BugScenario> scenarios, CampaignOptions options);

  // The whole loop: load corpus -> replay baselines + corpus (validating determinism and that
  // crash entries still fail) -> `rounds` mutation rounds -> final status. Returns the final
  // status; status().ok() distinguishes "ran clean" from "validation errors".
  const CampaignStatus& Run();

  const CampaignStatus& status() const { return status_; }
  const Corpus& corpus() const { return corpus_; }
  const CampaignOptions& options() const { return options_; }

  // Serializes `status` as the documented JSON object. Returns false when the file cannot be
  // written.
  static bool WriteStatusJson(const std::string& path, const CampaignStatus& status,
                              const std::vector<std::string>& scenario_names);

 private:
  struct ScenarioSlot {
    BugScenario scenario;
    std::unique_ptr<Explorer> explorer;
  };

  ScenarioSlot* FindSlot(const std::string& name);
  // Runs `repros` across the pool and merges serially in index order: coverage union, corpus
  // admission (when `admit`), crash handling. Appends per-input validation errors.
  void RunBatch(const std::vector<std::string>& repros, bool admit, bool validate_replay);
  // True when `outcome` contributed at least one unseen coverage key (and records them all).
  bool MergeCoverage(const ScheduleOutcome& outcome);
  void NoteFailure(ScenarioSlot& slot, const ScheduleOutcome& outcome);
  void MaybeWriteStatus(bool force);

  std::vector<ScenarioSlot> slots_;
  CampaignOptions options_;
  // One per pool worker, indexed by WorkerPool::Run's worker. The serial phases run on the
  // calling thread, which is worker 0, and use arena 0.
  std::vector<std::unique_ptr<WorkerArena>> arenas_;
  Corpus corpus_;
  CampaignStatus status_;
  std::mt19937_64 master_;
  std::unordered_set<uint64_t> coverage_;
  std::set<std::string> failure_keys_;
};

}  // namespace explore

#endif  // SRC_EXPLORE_CAMPAIGN_H_
