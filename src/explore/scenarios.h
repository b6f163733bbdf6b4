// Canned concurrency-bug scenarios for the exploration harness.
//
// Each scenario is a small self-contained workload reproducing one bug pattern from the
// paper's catalogue (Section 5), with a known verdict: `expect_bug` says whether a competent
// explorer should find a failure. The buggy/good monitor pair is deliberately identical except
// for the one-token IF-vs-WHILE around WAIT — the difference the Mesa convention exists to
// erase (Section 5.3).
//
// Used by tools/pcrcheck (CLI) and tests/explore_test.cc.

#ifndef SRC_EXPLORE_SCENARIOS_H_
#define SRC_EXPLORE_SCENARIOS_H_

#include <string>
#include <vector>

#include "src/explore/explorer.h"

namespace explore {

struct BugScenario {
  std::string name;
  std::string description;
  bool expect_bug = false;     // should exploration report at least one failure?
  // Whether the body tolerates checkpoint-and-branch execution (ExploreOptions::checkpoint):
  // all run-affecting state must live in the body's frame, in runtime objects, or in
  // registered Checkpointables. Bodies holding state the checkpoint cannot rewind (globals,
  // heap side tables, non-trivially-copyable WeakCells) must clear this; registration then
  // forces options.checkpoint off so they always run from zero. A checkpointed run's threads
  // may be discarded at Shutdown without unwinding (pcr::Scheduler::Shutdown), so in a
  // checkpoint-safe body a thread's frames may own heap only through registered Checkpointables.
  bool checkpoint_safe = true;
  ExploreOptions options;      // tuned defaults; callers may override budget/seed
  TestBody body;
};

// The scenario table (stable order): the built-ins followed by registered extras.
const std::vector<BugScenario>& Scenarios();

// Lookup by name; nullptr when unknown.
const BugScenario* FindScenario(const std::string& name);

// Appends a scenario to the registry, visible to every later Scenarios()/FindScenario call.
// Returns false (registry unchanged) when the name is empty or already taken, which makes
// registration idempotent. options.scenario_name is forced to the scenario name so repro
// strings stay self-describing. Not thread-safe — register during startup, before exploration
// fans out; registration may reallocate the table, so don't hold BugScenario pointers across it.
bool RegisterScenario(BugScenario scenario);

}  // namespace explore

#endif  // SRC_EXPLORE_SCENARIOS_H_
