// Repro: one schedule as a value, and as a copy-pastable token.
//
// A schedule is fully determined by (scenario, runtime seed, perturber decision sequence, fault
// plan): the runtime itself is deterministic, so replaying the recorded decisions byte-for-byte
// reproduces the identical trace. Everything inside the program carries the decoded value;
// text is made or read only where a schedule crosses the program's edge (corpus files,
// ScheduleOutcome::repro, Explorer::Replay's string overload, pcrcheck --replay). The encoding
// is deliberately compact and diff-friendly — decision streams are overwhelmingly zeros
// ("don't perturb here"), so runs are run-length encoded.
//
//   pcr1:<scenario>:<runtime_seed>:<decisions>[:<fault_plan>]
//   decisions := ( <hex-digit> [ 'r' <decimal-count> 'x' ] )*
//
// The decimal count would be ambiguous against a following hex digit, so it is always
// terminated with 'x'. Example: "pcr1:buggy_monitor:7:0r42x10r7x" = 42 defaults, one forced
// preempt, 7 defaults.
//
// The optional fifth field is a fault::Plan in its own grammar (src/fault/fault.h) — e.g.
// "pcr1:-:7:0r12x1:f1,notify-lost@2" — so a repro pins the injected faults along with the
// schedule. Four-field strings stay valid: an absent field means "no faults".

#ifndef SRC_EXPLORE_REPRO_H_
#define SRC_EXPLORE_REPRO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault.h"

namespace explore {

// One recorded perturber decision, in consultation order. ForcePreempt consultations record
// 0 (no) or 1 (yes); PickNext tie-breaks record the chosen candidate index, clamped to 15.
using Decision = uint8_t;

// Repro::Decode rejects decision streams longer than this. Recorders stop at 2^20 decisions
// (perturbers.h kMaxRecordedDecisions), so no legitimate repro comes close; without the cap a
// hostile run-length ("0r999999999999x") would make the decoder allocate terabytes.
inline constexpr size_t kMaxReproDecisions = size_t{1} << 22;

// A replay takes defaults past the end of its stream, so trailing defaults change nothing:
// repros drop them.
std::vector<Decision> TrimTrailingDefaults(std::vector<Decision> decisions);

// One schedule: which scenario to run, the runtime seed, the decision stream (replayed
// verbatim, defaults past its end) and the fault plan.
struct Repro {
  std::string scenario;
  uint64_t runtime_seed = 1;
  std::vector<Decision> decisions;
  fault::Plan fault_plan;

  // The pcr1 string. Decisions above 15 are written as 15; a disabled plan writes no fifth
  // field.
  std::string Encode() const;
  // Strict parse: false on a malformed string, decision field or fault-plan field, with `*out`
  // untouched. Never throws.
  static bool Decode(const std::string& text, Repro* out);

  bool operator==(const Repro&) const = default;
};

}  // namespace explore

#endif  // SRC_EXPLORE_REPRO_H_
