// Tests for the coverage-guided fuzzing campaign (src/explore/campaign.h): corpus round-trips
// through disk, the mutator is deterministic, coverage deduplication makes replay-only passes
// converge, minimized crash entries keep failing, corpus evolution is worker-count invariant,
// a warm WorkerArena replays like a fresh one, a coverage run's trace hash is its last prefix
// hash, the trace hash is byte-wise FNV-1a exactly, and explore::Repro's 4-field/5-field
// compatibility holds under fuzzed input.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/explore/campaign.h"
#include "src/explore/corpus.h"
#include "src/explore/explorer.h"
#include "src/explore/hash.h"
#include "src/explore/repro.h"
#include "src/explore/scenarios.h"
#include "src/fault/fault.h"
#include "src/pcr/errors.h"
#include "src/trace/tracer.h"

namespace {

namespace fs = std::filesystem;

std::vector<explore::BugScenario> PickScenarios(const std::vector<std::string>& names) {
  std::vector<explore::BugScenario> picked;
  for (const std::string& name : names) {
    const explore::BugScenario* s = explore::FindScenario(name);
    EXPECT_NE(s, nullptr) << name;
    picked.push_back(*s);
  }
  return picked;
}

// A fresh, empty temp directory for one test.
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("campaign_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// The texts of a corpus list, in its order.
std::vector<std::string> Texts(const std::vector<explore::Corpus::Entry>& list) {
  std::vector<std::string> texts;
  for (const explore::Corpus::Entry& entry : list) {
    texts.push_back(entry.text);
  }
  return texts;
}

explore::CampaignOptions FastOptions() {
  explore::CampaignOptions options;
  options.rounds = 4;
  options.batch = 6;
  options.seed = 17;
  options.workers = 2;
  return options;
}

// --- corpus ------------------------------------------------------------------------------------

TEST(CorpusTest, RoundTripsEntriesAndCrashesThroughDisk) {
  std::string dir = FreshDir("corpus_roundtrip");
  const std::string a = "pcr1:missing_notify:1:";
  const std::string b = "pcr1:weakmem_race:1:0r5x1";
  const std::string crash = "pcr1:missing_notify:1:1";
  {
    explore::Corpus corpus(dir);
    std::vector<std::string> errors;
    ASSERT_TRUE(corpus.Load(&errors));
    EXPECT_TRUE(errors.empty());
    EXPECT_TRUE(corpus.Add(a));
    EXPECT_TRUE(corpus.Add(b));
    EXPECT_FALSE(corpus.Add(a)) << "duplicate content must be refused";
    EXPECT_TRUE(corpus.AddCrash(crash));
  }
  // Content-addressed layout: the entry sits at dir/<fnv64>.repro.
  EXPECT_TRUE(fs::exists(fs::path(dir) / explore::Corpus::FileName(a)));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "crashes" / explore::Corpus::FileName(crash)));

  explore::Corpus reloaded(dir);
  std::vector<std::string> errors;
  ASSERT_TRUE(reloaded.Load(&errors));
  EXPECT_TRUE(errors.empty()) << errors.front();
  std::vector<std::string> expected = {a, b};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(Texts(reloaded.entries()), expected);
  EXPECT_EQ(Texts(reloaded.crashes()), std::vector<std::string>{crash});
  // Each entry keeps the schedule its text decodes to.
  for (const explore::Corpus::Entry& entry : reloaded.entries()) {
    explore::Repro decoded;
    ASSERT_TRUE(explore::Repro::Decode(entry.text, &decoded)) << entry.text;
    EXPECT_EQ(entry.input, decoded) << entry.text;
  }
}

TEST(CorpusTest, ReportsMalformedEntriesWithoutDying) {
  std::string dir = FreshDir("corpus_malformed");
  {
    std::ofstream bad(fs::path(dir) / "deadbeef00000000.repro");
    bad << "pcr1:not-enough-fields\n";
  }
  explore::Corpus corpus(dir);
  std::vector<std::string> errors;
  EXPECT_TRUE(corpus.Load(&errors)) << "bad entries are reported, not fatal";
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("malformed"), std::string::npos) << errors[0];
  EXPECT_TRUE(corpus.entries().empty());
}

// The strict decoder rejects a malformed fault-plan field when the corpus loads, naming the
// file, instead of admitting the entry and failing its replay later.
TEST(CorpusTest, MalformedFaultPlanIsRejectedAtLoad) {
  std::string dir = FreshDir("corpus_bad_plan");
  const std::string bad = "pcr1:missing_notify:1::f9,bogus";
  const std::string good = "pcr1:missing_notify:1:";
  for (const std::string& text : {bad, good}) {
    std::ofstream(fs::path(dir) / explore::Corpus::FileName(text)) << text << "\n";
  }
  explore::Corpus corpus(dir);
  std::vector<std::string> errors;
  EXPECT_TRUE(corpus.Load(&errors)) << "bad entries are reported, not fatal";
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("malformed repro in"), std::string::npos) << errors[0];
  EXPECT_NE(errors[0].find(explore::Corpus::FileName(bad)), std::string::npos) << errors[0];
  EXPECT_EQ(Texts(corpus.entries()), std::vector<std::string>{good});
  EXPECT_FALSE(corpus.Add(bad)) << "Add applies the same decoder";
  EXPECT_EQ(corpus.entries().size(), 1u);
}

TEST(CorpusTest, ReadOnlyMissingDirectoryIsAnError) {
  explore::Corpus corpus(FreshDir("corpus_ro") + "/never_created", /*read_only=*/true);
  std::vector<std::string> errors;
  EXPECT_FALSE(corpus.Load(&errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("does not exist"), std::string::npos) << errors[0];
}

// --- mutator -----------------------------------------------------------------------------------

TEST(MutatorTest, SameSeedProducesIdenticalOffspringChains) {
  explore::Repro parent;
  ASSERT_TRUE(explore::Repro::Decode("pcr1:buggy_monitor:7:0r12x10r3x2", &parent));

  explore::Mutator first(42);
  explore::Mutator second(42);
  explore::Repro lhs = parent;
  explore::Repro rhs = parent;
  for (int i = 0; i < 64; ++i) {
    lhs = first.Mutate(lhs, &parent);
    rhs = second.Mutate(rhs, &parent);
    ASSERT_EQ(lhs.Encode(), rhs.Encode()) << "diverged at step " << i;
  }
  explore::Mutator other(43);
  explore::Repro diverged = parent;
  bool any_difference = false;
  for (int i = 0; i < 64 && !any_difference; ++i) {
    diverged = other.Mutate(diverged, &parent);
    any_difference = !(diverged == lhs);
  }
  EXPECT_TRUE(any_difference) << "different seeds should explore different offspring";
}

TEST(MutatorTest, OffspringAlwaysReEncodeAndRespectTheDecisionCap) {
  explore::Repro parent;
  parent.scenario = "weakmem_race";
  parent.runtime_seed = 3;
  explore::Mutator mutator(7, /*max_decisions=*/128);
  explore::Repro current = parent;
  for (int i = 0; i < 500; ++i) {
    current = mutator.Mutate(current, i % 3 == 0 ? &parent : nullptr);
    EXPECT_LE(current.decisions.size(), 128u);
    explore::Repro decoded;
    ASSERT_TRUE(explore::Repro::Decode(current.Encode(), &decoded)) << current.Encode();
    // Values above 15 cannot survive the hex encoding; the mutator must not emit them.
    EXPECT_TRUE(decoded == current) << current.Encode();
  }
}

// --- campaign ----------------------------------------------------------------------------------

TEST(CampaignTest, FindsKnownBugsFromAnEmptyCorpusAndGrowsIt) {
  std::string dir = FreshDir("campaign_find");
  explore::CampaignOptions options = FastOptions();
  options.corpus_dir = dir;
  explore::Campaign campaign(
      PickScenarios({"buggy_monitor", "missing_notify", "weakmem_race"}), options);
  const explore::CampaignStatus& status = campaign.Run();

  EXPECT_TRUE(status.ok()) << status.errors.front();
  EXPECT_EQ(status.rounds_completed, options.rounds);
  EXPECT_GE(status.distinct_failures, 2u)
      << "missing_notify and weakmem_race fail from their baselines alone";
  EXPECT_GE(status.corpus_entries, 3u) << "every scenario baseline discovers fresh coverage";
  EXPECT_GE(status.crash_entries, 2u);
  EXPECT_GT(status.coverage_points, 0u);
  EXPECT_FALSE(campaign.corpus().crashes().empty());
}

TEST(CampaignTest, ReplayOnlyPassValidatesAndAddsNoCoverage) {
  std::string dir = FreshDir("campaign_replay");
  explore::CampaignOptions options = FastOptions();
  options.corpus_dir = dir;
  std::vector<explore::BugScenario> scenarios =
      PickScenarios({"buggy_monitor", "missing_notify", "weakmem_race"});
  explore::Campaign writer(scenarios, options);
  const explore::CampaignStatus& written = writer.Run();
  ASSERT_TRUE(written.ok()) << written.errors.front();

  // Replay-only (rounds=0, read-only): every corpus entry must replay deterministically, every
  // minimized crash entry must still fail, and — the dedup invariant — replaying the corpus
  // rediscovers exactly the coverage the writing campaign accumulated, nothing new.
  explore::CampaignOptions replay_options = options;
  replay_options.rounds = 0;
  replay_options.read_only = true;
  explore::Campaign replayer(scenarios, replay_options);
  const explore::CampaignStatus& replayed = replayer.Run();
  EXPECT_TRUE(replayed.ok()) << replayed.errors.front();
  EXPECT_EQ(replayed.coverage_points, written.coverage_points)
      << "replaying admitted entries must reproduce the full coverage map and add nothing";
  EXPECT_EQ(replayed.corpus_entries, written.corpus_entries)
      << "every replayed entry must re-encode byte-identically (no phantom admissions)";
  EXPECT_EQ(replayed.crash_entries, written.crash_entries);

  // And the corpus directory was not touched: content-addressed names, still the same files.
  explore::Corpus check(dir);
  std::vector<std::string> errors;
  ASSERT_TRUE(check.Load(&errors));
  EXPECT_EQ(check.entries().size(), written.corpus_entries);
  EXPECT_EQ(check.crashes().size(), written.crash_entries);
}

TEST(CampaignTest, CrashEntriesStillFailOnDirectReplay) {
  std::string dir = FreshDir("campaign_crashes");
  explore::CampaignOptions options = FastOptions();
  options.corpus_dir = dir;
  std::vector<explore::BugScenario> scenarios = PickScenarios({"missing_notify", "weakmem_race"});
  explore::Campaign campaign(scenarios, options);
  ASSERT_TRUE(campaign.Run().ok());
  ASSERT_FALSE(campaign.corpus().crashes().empty());

  for (const explore::Corpus::Entry& crash : campaign.corpus().crashes()) {
    const explore::BugScenario* scenario = explore::FindScenario(crash.input.scenario);
    ASSERT_NE(scenario, nullptr) << crash.text;
    explore::ExploreOptions opts = scenario->options;
    explore::Explorer explorer(opts);
    explore::ScheduleOutcome outcome = explorer.Replay(crash.text, scenario->body);
    EXPECT_TRUE(outcome.failed) << "minimized crash entry no longer fails: " << crash.text;
  }
}

TEST(CampaignTest, WorkerCountDoesNotChangeCorpusEvolution) {
  std::vector<explore::BugScenario> scenarios =
      PickScenarios({"buggy_monitor", "missing_notify", "weakmem_race"});
  explore::CampaignOptions options = FastOptions();  // in-memory corpus: corpus_dir stays ""
  auto run_with_workers = [&](int workers) {
    explore::CampaignOptions opts = options;
    opts.workers = workers;
    explore::Campaign campaign(scenarios, opts);
    campaign.Run();
    return std::tuple<std::vector<std::string>, std::vector<std::string>, size_t,
                      std::vector<std::string>, int64_t>(
        Texts(campaign.corpus().entries()), Texts(campaign.corpus().crashes()),
        campaign.status().coverage_points, campaign.status().failure_keys,
        campaign.status().inputs_run);
  };
  auto serial = run_with_workers(1);
  auto parallel = run_with_workers(4);
  EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel)) << "corpus entries diverged";
  EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel)) << "crash entries diverged";
  EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel)) << "coverage diverged";
  EXPECT_EQ(std::get<3>(serial), std::get<3>(parallel)) << "failure identities diverged";
  EXPECT_EQ(std::get<4>(serial), std::get<4>(parallel)) << "inputs_run diverged";
}

TEST(CampaignTest, StatusJsonIsWrittenAndWellFormed) {
  std::string dir = FreshDir("campaign_status");
  explore::CampaignOptions options = FastOptions();
  options.rounds = 1;
  options.corpus_dir = dir;
  options.status_json_path = dir + "/status.json";
  explore::Campaign campaign(PickScenarios({"weakmem_race"}), options);
  ASSERT_TRUE(campaign.Run().ok());

  std::ifstream in(options.status_json_path);
  ASSERT_TRUE(in.good()) << "status json missing";
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  for (const char* key : {"\"rounds\"", "\"inputs_run\"", "\"corpus_entries\"",
                          "\"crash_entries\"", "\"coverage_points\"", "\"distinct_failures\"",
                          "\"scenarios\"", "\"failures\"", "\"errors\"", "\"wall_sec\"",
                          "\"inputs_per_sec\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing " << key << " in:\n" << text;
  }
}

// --- warm arenas and the one-pass trace hash --------------------------------------------------

// An Explorer configured the way Campaign configures each scenario slot.
explore::Explorer CampaignExplorer(const explore::BugScenario& scenario) {
  explore::ExploreOptions options = scenario.options;
  options.scenario_name = scenario.name;
  options.collect_coverage = true;
  options.coverage_salt = explore::Corpus::ContentHash(scenario.name);
  return explore::Explorer(options);
}

// Replays `repro` on its scenario's campaign explorer, through `arena` when non-null.
explore::ScheduleOutcome CampaignReplay(const std::string& repro, explore::WorkerArena* arena) {
  explore::Repro input;
  EXPECT_TRUE(explore::Repro::Decode(repro, &input)) << repro;
  const explore::BugScenario* scenario = explore::FindScenario(input.scenario);
  EXPECT_NE(scenario, nullptr) << repro;
  if (scenario == nullptr) {
    return {};
  }
  return CampaignExplorer(*scenario).Replay(input, scenario->body, nullptr, arena);
}

void ExpectSameOutcome(const explore::ScheduleOutcome& fresh,
                       const explore::ScheduleOutcome& warm) {
  EXPECT_EQ(fresh.trace_hash, warm.trace_hash);
  EXPECT_EQ(fresh.coverage, warm.coverage);
  ASSERT_EQ(fresh.findings.size(), warm.findings.size());
  for (size_t i = 0; i < fresh.findings.size(); ++i) {
    const explore::Finding& a = fresh.findings[i];
    const explore::Finding& b = warm.findings[i];
    EXPECT_EQ(std::tie(a.kind, a.object, a.thread_a, a.thread_b, a.time_us, a.detail),
              std::tie(b.kind, b.object, b.thread_a, b.thread_b, b.time_us, b.detail))
        << "finding " << i;
  }
  EXPECT_EQ(fresh.failures, warm.failures);
  EXPECT_EQ(fresh.repro, warm.repro);
}

// A WorkerArena carries capacity only. Recycled stacks keep their last user's bytes, here those
// of a fiber an injected thread death killed mid-unwind, yet every committed corpus entry and
// crash replays on the warm arena exactly as on a fresh one.
TEST(WorkerArenaTest, WarmArenaReplaysTheCommittedCorpusLikeAFreshOne) {
  explore::Corpus corpus(PCR_CORPUS_DIR, /*read_only=*/true);
  std::vector<std::string> errors;
  ASSERT_TRUE(corpus.Load(&errors));
  ASSERT_TRUE(errors.empty()) << errors.front();
  std::vector<std::string> inputs = Texts(corpus.entries());
  for (const std::string& crash : Texts(corpus.crashes())) {
    inputs.push_back(crash);
  }
  ASSERT_FALSE(inputs.empty());

  const std::string death = "pcr1:buggy_monitor:1::f1,rate=0.05,sites=thread-death,seed=3";
  explore::WorkerArena shared;
  explore::ScheduleOutcome died = CampaignReplay(death, &shared);
  ASSERT_TRUE(std::any_of(died.fired_faults.begin(), died.fired_faults.end(),
                          [](const fault::ScriptedFault& f) {
                            return f.site == fault::FaultSite::kThreadDeath;
                          }))
      << "the warm-up input must kill a thread: " << died.repro;
  for (const std::string& repro : inputs) {
    (void)CampaignReplay(repro, &shared);
  }
  for (const std::string& repro : inputs) {
    SCOPED_TRACE(repro);
    (void)CampaignReplay(death, &shared);
    ExpectSameOutcome(CampaignReplay(repro, nullptr), CampaignReplay(repro, &shared));
  }
  EXPECT_GT(shared.stacks.stats().pool_hits, 0u);
}

// The last prefix hash covers the whole trace, so it is the trace hash whether or not the stride
// divides the event count (a coverage run's last fingerprint is its trace hash too).
TEST(TraceHashTest, LastPrefixHashIsTheTraceHash) {
  trace::Tracer tracer;
  EXPECT_EQ(explore::TracePrefixHashes(tracer, 4).back(), explore::TraceHash(tracer))
      << "empty trace";
  for (uint64_t i = 0; i < 12; ++i) {
    trace::Event e;
    e.time_us = static_cast<trace::Usec>(10 * i);
    e.thread = i % 3;
    e.object = i;
    e.arg = i * i;
    tracer.Record(e);
  }
  for (size_t stride : {size_t{4}, size_t{5}}) {
    std::vector<uint64_t> prefixes = explore::TracePrefixHashes(tracer, stride);
    EXPECT_EQ(prefixes.size(), (12 + stride - 1) / stride) << "stride " << stride;
    EXPECT_EQ(prefixes.back(), explore::TraceHash(tracer)) << "stride " << stride;
  }
}

TEST(TraceHashTest, CoverageCollectionDoesNotChangeTheTraceHash) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  const std::string repro = "pcr1:buggy_monitor:1:0r4x3";
  explore::Explorer plain_explorer(scenario->options);
  explore::ScheduleOutcome plain = plain_explorer.Replay(repro, scenario->body);
  explore::ScheduleOutcome covered = CampaignExplorer(*scenario).Replay(repro, scenario->body);
  EXPECT_TRUE(plain.coverage.empty());
  EXPECT_FALSE(covered.coverage.empty());
  EXPECT_EQ(plain.trace_hash, covered.trace_hash);
}

// TraceHasher folds runs of zero bytes into one multiply by a power of the prime and carries a
// run that is still open as a pending exponent. The value must stay byte-wise FNV-1a exactly
// (segment reseeds mix it into the RNG seed), so these check value() after every word against
// a byte-at-a-time reference, over inputs that open, cross and close zero runs everywhere.
class ByteWiseFnv {
 public:
  void MixWord(uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (byte * 8)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void ExpectSameHashAfterEveryWord(const std::vector<uint64_t>& words,
                                  explore::TraceHasher* hasher, ByteWiseFnv* reference) {
  for (size_t i = 0; i < words.size(); ++i) {
    hasher->MixWord(words[i]);
    reference->MixWord(words[i]);
    ASSERT_EQ(hasher->value(), reference->value()) << "after word " << i << " = " << words[i];
  }
}

TEST(TraceHashTest, ZeroRunFoldingMatchesByteWiseFnv) {
  const uint64_t ones = ~uint64_t{0};
  std::vector<std::vector<uint64_t>> inputs = {
      std::vector<uint64_t>(3, 0),     // zero words only
      std::vector<uint64_t>(5, ones),  // no zero byte at all
      // Runs of >= 8 zero words: the pending run passes the flush bound, alone and after a
      // run opened inside a word (0x01 leaves seven high zero bytes pending).
      std::vector<uint64_t>(20, 0),
      {0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0x0100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
       0, 0xff00000000000000ull, 0, 0, 0, 0, 0, 0, 0, 0, ones},
  };
  // One nonzero byte at each position, with zero runs on both sides of it inside the word.
  std::vector<uint64_t> single_bytes;
  for (int pos = 0; pos < 8; ++pos) {
    single_bytes.push_back(uint64_t{0x5a} << (pos * 8));
  }
  inputs.push_back(single_bytes);
  // The same bytes, each run across a word boundary into a zero word and an all-ones word.
  std::vector<uint64_t> crossing;
  for (int pos = 0; pos < 8; ++pos) {
    crossing.insert(crossing.end(), {uint64_t{0x80} << (pos * 8), 0, ones});
  }
  inputs.push_back(crossing);
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    explore::TraceHasher hasher;
    ByteWiseFnv reference;
    EXPECT_EQ(hasher.value(), reference.value()) << "empty";
    ExpectSameHashAfterEveryWord(inputs[i], &hasher, &reference);
  }
}

TEST(TraceHashTest, CopyMidStreamCarriesThePendingZeroRun) {
  explore::TraceHasher hasher;
  ByteWiseFnv reference;
  // Stop with a zero run open: seven high zero bytes of 0x2a plus two zero words.
  ExpectSameHashAfterEveryWord({0x1234, 0x2a, 0, 0}, &hasher, &reference);
  explore::TraceHasher copy = hasher;
  ByteWiseFnv copy_reference = reference;
  EXPECT_EQ(copy.value(), copy_reference.value());
  ExpectSameHashAfterEveryWord({0x7700, 0, 5}, &hasher, &reference);
  ExpectSameHashAfterEveryWord({0, 0, 0, 0, 0, 0, 0, 0, 0, 9}, &copy, &copy_reference);
  EXPECT_NE(hasher.value(), copy.value());
}

TEST(TraceHashTest, EventHashIsByteWiseFnvOverItsSixWords) {
  trace::Tracer tracer;
  explore::TraceHasher hasher;
  ByteWiseFnv reference;
  for (uint64_t i = 0; i < 40; ++i) {
    trace::Event e;
    e.time_us = static_cast<trace::Usec>(i * 977);
    e.type = static_cast<trace::EventType>(i % 7);
    e.priority = static_cast<uint8_t>(i % 8);
    e.processor = static_cast<uint16_t>(i % 3);
    e.thread = i % 5;
    e.object = i * 0x10001;
    e.arg = i % 4 == 0 ? ~uint64_t{0} : i << 40;
    tracer.Record(e);
    for (uint64_t word : {static_cast<uint64_t>(e.time_us), static_cast<uint64_t>(e.type),
                          (static_cast<uint64_t>(e.priority) << 32) |
                              (static_cast<uint64_t>(e.processor) << 16),
                          static_cast<uint64_t>(e.thread), e.object, e.arg}) {
      reference.MixWord(word);
    }
    hasher.Mix(e);
    ASSERT_EQ(hasher.value(), reference.value()) << "after event " << i;
  }
  EXPECT_EQ(explore::TraceHash(tracer), reference.value());
}

// --- repro 4-field / 5-field compatibility ------------------------------------------------------

TEST(ReproCompatTest, FourFieldFormStaysValidAndMeansNoFaults) {
  explore::Repro repro;
  repro.fault_plan = fault::Plan::Decode("f1,notify-lost@2");  // overwritten by the decode
  ASSERT_TRUE(explore::Repro::Decode("pcr1:buggy_monitor:7:0r5x1", &repro));
  EXPECT_EQ(repro.fault_plan, fault::Plan()) << "absent fifth field must decode as 'no faults'";
  EXPECT_EQ(repro.decisions.size(), 6u);
}

TEST(ReproCompatTest, EmptyDecisionFieldWithFaultPlanParses) {
  explore::Repro input;
  ASSERT_TRUE(explore::Repro::Decode("pcr1:weakmem_race:3::f1,notify-lost@2", &input));
  EXPECT_TRUE(input.decisions.empty());
  EXPECT_TRUE(input.fault_plan.enabled());
}

TEST(ReproCompatTest, TrailingDelimiterIsRejectedNotTreatedAsEmptyPlan) {
  explore::Repro input;
  EXPECT_FALSE(explore::Repro::Decode("pcr1:x:1:0r5x1:", &input));
}

TEST(ReproCompatTest, OversizedInputsAreRejectedNotAllocated) {
  explore::Repro input;
  // Run lengths: just-over-cap, over-cap in aggregate, and absurd digit counts.
  EXPECT_FALSE(explore::Repro::Decode("pcr1:x:1:0r4194305x", &input));
  EXPECT_FALSE(explore::Repro::Decode("pcr1:x:1:0r4194304x1", &input));
  EXPECT_FALSE(explore::Repro::Decode("pcr1:x:1:0r999999999999999999x", &input));
  EXPECT_TRUE(explore::Repro::Decode("pcr1:x:1:0r4194304x", &input))
      << "exactly kMaxReproDecisions is still legal";
  EXPECT_EQ(input.decisions.size(), explore::kMaxReproDecisions);

  // Oversized fault plans: Plan::Decode refuses scripts past kMaxPlanScriptEntries, and
  // Repro::Decode turns that refusal into a clean false.
  std::string plan = "f1";
  for (size_t i = 0; i < fault::kMaxPlanScriptEntries + 1; ++i) {
    plan += ",notify-lost@" + std::to_string(i);
  }
  EXPECT_THROW((void)fault::Plan::Decode(plan), pcr::UsageError);
  EXPECT_FALSE(explore::Repro::Decode("pcr1:x:1:0:" + plan, &input));
}

TEST(ReproCompatTest, MutatorFuzzedInputsRoundTripAndCorruptionsNeverThrow) {
  explore::Repro parent;
  ASSERT_TRUE(
      explore::Repro::Decode("pcr1:buggy_monitor:7:0r12x10r3x2:f1,notify-lost@2", &parent));
  explore::Mutator mutator(2026);
  std::mt19937_64 corrupt_rng(99);
  explore::Repro current = parent;
  int decoded_ok = 0;
  for (int i = 0; i < 1000; ++i) {
    current = mutator.Mutate(current, &parent);
    std::string repro = current.Encode();
    explore::Repro decoded;
    ASSERT_TRUE(explore::Repro::Decode(repro, &decoded)) << repro;
    ASSERT_TRUE(decoded == current) << repro;
    ++decoded_ok;
    // Corrupt one byte: decode must return true or false, never throw or crash.
    if (!repro.empty()) {
      std::string mangled = repro;
      mangled[corrupt_rng() % mangled.size()] =
          static_cast<char>(' ' + corrupt_rng() % 95);
      explore::Repro scratch;
      (void)explore::Repro::Decode(mangled, &scratch);
    }
  }
  EXPECT_EQ(decoded_ok, 1000);
}

}  // namespace
