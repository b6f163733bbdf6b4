// Deterministic fault injection: seeded, replayable plans driving the runtime's FaultPoint
// hook (src/pcr/fault_point.h).
//
// The paper's Section 5.4 is a catalogue of how Cedar/GVX fail when the runtime fails them:
// FORK failure "treated as a fatal error" because no call site handles it, missing notifies
// masked by CV timeouts, threads dying inside monitors and wedging every later entrant. A
// fault::Plan makes those failures an *input*: the same plan plus the same schedule seed
// reproduces the same faults at the same decision points on every run, so the explorer can
// search fault x schedule space and hand back a minimized, replayable repro string.
//
// Plan grammar (serialized into the optional 5th field of a pcr1 repro string, so it must
// avoid ':'): comma-separated directives after an "f1" version tag.
//
//   f1[,seed=N][,rate=R[,val=V],sites=a+b+c][,<site>@<index>[~<value>]...]
//
//   seed=N        RNG seed for probabilistic firing (default 1)
//   rate=R        probability in [0,1] that a consult at an armed site fires
//   val=V         magnitude a rate-draw fires with (default 1; quanta for timer-skew/x-stall)
//   sites=a+b     '+'-separated armed site names (see trace::FaultSiteName)
//   site@idx~v    scripted fault: the idx-th consult (0-based) at `site` fires with value v
//                 (~v optional, default 1). Scripted entries win over rate draws.
//
// Examples: "f1,rate=0.01,sites=notify-lost+timer-skew,seed=7" or "f1,notify-lost@2".

#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/pcr/fault_point.h"

namespace fault {

using pcr::FaultSite;
using pcr::kNumFaultSites;

// One scripted firing: the `index`-th consult at `site` fires with `value`.
struct ScriptedFault {
  FaultSite site = FaultSite::kFork;
  uint64_t index = 0;
  uint64_t value = 1;

  bool operator==(const ScriptedFault&) const = default;
};

// A complete, self-describing fault plan. Value-semantic; Encode/Decode round-trips exactly.
struct Plan {
  uint64_t seed = 1;      // probabilistic-firing RNG seed
  double rate = 0;        // per-consult firing probability at armed sites
  uint64_t value = 1;     // magnitude for rate-drawn firings
  uint32_t site_mask = 0; // bit i set = FaultSite(i) armed for probabilistic firing
  std::vector<ScriptedFault> script;

  // A disabled plan never fires; installing it is equivalent to no injector.
  bool enabled() const { return (rate > 0 && site_mask != 0) || !script.empty(); }

  std::string Encode() const;
  // Parses the grammar above ("" and "f1" give a disabled plan). Throws pcr::UsageError on
  // malformed input.
  static Plan Decode(const std::string& text);

  bool operator==(const Plan&) const = default;
};

// Bit for one site in Plan::site_mask.
inline constexpr uint32_t SiteBit(FaultSite site) {
  return 1u << static_cast<unsigned>(site);
}

// Plan::Decode rejects scripts longer than this with a clear UsageError. Real plans carry a
// handful of entries (one per fault that must fire); the cap exists so a hostile or corrupted
// repro's fifth field cannot make the decoder build an unbounded script.
inline constexpr size_t kMaxPlanScriptEntries = 4096;

// Deterministic single-step plan mutation for the fuzzing campaign (src/explore/campaign.h):
// draws everything from `rng` (seeded by the caller, never wall-clock), so the same plan and
// the same RNG state always produce the same offspring. One call applies one of:
//   * append a scripted fault at a random (site, consult index, value);
//   * drop or re-aim (index/value) an existing scripted entry;
//   * redraw the probabilistic seed ("re-sweep" the rate draws);
//   * arm/alter a small probabilistic rate over a random site set, or disarm it.
// Scripted growth is capped at kMaxPlanScriptEntries so evolved plans always re-encode.
Plan MutatePlan(const Plan& plan, std::mt19937_64& rng);

// Site name lookup (inverse of trace::FaultSiteName). Returns false for unknown names.
bool ParseFaultSite(const std::string& name, FaultSite* out);

// The FaultInjector a Plan drives. Deterministic: consults are counted per site, scripted
// entries match on (site, consult index), and probabilistic draws take one RNG step per
// consult at an *armed* site only — so arming one site never changes another site's draws,
// which is what lets Minimize convert rate-fired plans into scripted ones. The RNG (2.5 KB of
// mt19937_64) is seeded and carried only for a plan that can draw: the explorer builds an
// injector per run and copies it at every checkpoint node and branch, faults on or off.
class Injector : public pcr::FaultInjector {
 public:
  explicit Injector(Plan plan = {});

  uint64_t OnFaultPoint(FaultSite site) override;

  // Rewinds consult counters, the RNG, and the firing log for a fresh run of the same plan.
  void Reset();

  const Plan& plan() const { return plan_; }
  void set_plan(Plan plan);

  // Everything that fired, in firing order: (site, consult index at that site, value).
  const std::vector<ScriptedFault>& fired() const { return fired_; }
  uint64_t consults(FaultSite site) const {
    return consults_[static_cast<unsigned>(site)];
  }

 private:
  Plan plan_;
  std::optional<std::mt19937_64> rng_;  // engaged iff the plan arms a rate over some site
  uint64_t consults_[kNumFaultSites] = {};
  std::vector<ScriptedFault> fired_;
};

}  // namespace fault

#endif  // SRC_FAULT_FAULT_H_
