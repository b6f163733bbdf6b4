// Admission control: reject early instead of queueing forever.
//
// The paper's systems are closed worlds — one workstation, ~35 threads, arrivals gated by the
// one user at the keyboard. The service world (docs/WORLDS.md) is open-loop: thousands of
// simulated clients generate requests independently of completions, so a queue behind an
// overloaded server grows without bound unless something says no at the door. This controller
// is that something. Two composable policies:
//
//   * Token bucket — a rate gate: tokens refill at `tokens_per_sec` of virtual time up to a
//     `burst` cap, each admission spends one. Smooths bursts while bounding sustained
//     throughput to the refill rate.
//   * Queue depth — a memory gate: reject while the guarded queue already holds `queue_limit`
//     items. This is the backstop that directly bounds queue memory no matter how the rate
//     was estimated.
//
// The controller is passive (no thread, no lock): callers consult it at their enqueue point,
// under whatever monitor guards the queue. All state advances on virtual time, so a seeded run
// admits and rejects identically on every replay. The kAdmissionReject fault site lets the
// campaign fuzzer force rejections a policy would have admitted, exercising the caller's
// rejection path (retry budgets, backoff) without needing real overload.

#ifndef SRC_PARADIGM_ADMISSION_H_
#define SRC_PARADIGM_ADMISSION_H_

#include <cstdint>
#include <string_view>

#include "src/pcr/scheduler.h"

namespace paradigm {

enum class AdmissionPolicy : uint8_t {
  kNone,         // admit everything (fault site still consulted)
  kTokenBucket,  // rate gate only
  kQueueDepth,   // depth gate only
  kBoth,         // rate gate, then depth gate
};

struct AdmissionOptions {
  AdmissionPolicy policy = AdmissionPolicy::kNone;
  double tokens_per_sec = 0;  // token-bucket refill rate; <= 0 disables the bucket
  double burst = 0;           // bucket capacity in tokens; <= 0 defaults to 1s of refill
  size_t queue_limit = 0;     // depth threshold; 0 disables the depth gate
};

enum class AdmissionVerdict : uint8_t {
  kAdmit,
  kRejectRate,   // token bucket empty
  kRejectDepth,  // guarded queue at or past queue_limit
  kRejectFault,  // a FaultSite::kAdmissionReject firing forced the rejection
};

inline std::string_view AdmissionVerdictName(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmit:
      return "admit";
    case AdmissionVerdict::kRejectRate:
      return "reject-rate";
    case AdmissionVerdict::kRejectDepth:
      return "reject-depth";
    case AdmissionVerdict::kRejectFault:
      return "reject-fault";
  }
  return "unknown";
}

class AdmissionController {
 public:
  AdmissionController(pcr::Scheduler& scheduler, AdmissionOptions options)
      : scheduler_(scheduler), options_(options) {
    if (options_.tokens_per_sec > 0) {
      burst_ = options_.burst > 0 ? options_.burst : options_.tokens_per_sec;
      tokens_ = burst_;  // start full: the first burst rides free, like a freshly idle server
    }
    last_refill_ = scheduler_.now();
  }

  // One admission decision for a request offered to a queue currently `queue_depth` deep.
  // Called under the caller's queue monitor (the controller itself needs no lock: the runtime
  // is cooperatively scheduled and this never blocks).
  AdmissionVerdict Admit(size_t queue_depth) {
    AdmissionVerdict verdict = Decide(queue_depth);
    if (verdict == AdmissionVerdict::kAdmit) {
      ++admitted_;
    } else {
      ++rejections_[static_cast<size_t>(verdict)];
    }
    return verdict;
  }

  int64_t admitted() const { return admitted_; }
  int64_t rejected(AdmissionVerdict verdict) const {
    return rejections_[static_cast<size_t>(verdict)];
  }
  int64_t rejected_total() const {
    return rejections_[1] + rejections_[2] + rejections_[3];
  }

 private:
  AdmissionVerdict Decide(size_t queue_depth) {
    // The fault site comes first so a scripted plan can force a rejection regardless of
    // policy — including kNone, which otherwise never rejects.
    if (scheduler_.ConsultFault(pcr::FaultSite::kAdmissionReject) != 0) {
      return AdmissionVerdict::kRejectFault;
    }
    bool rate_gate = (options_.policy == AdmissionPolicy::kTokenBucket ||
                      options_.policy == AdmissionPolicy::kBoth) &&
                     options_.tokens_per_sec > 0;
    bool depth_gate = (options_.policy == AdmissionPolicy::kQueueDepth ||
                       options_.policy == AdmissionPolicy::kBoth) &&
                      options_.queue_limit > 0;
    if (rate_gate) {
      Refill();
      if (tokens_ < 1.0) {
        return AdmissionVerdict::kRejectRate;
      }
    }
    if (depth_gate && queue_depth >= options_.queue_limit) {
      return AdmissionVerdict::kRejectDepth;
    }
    if (rate_gate) {
      tokens_ -= 1.0;  // spend only once both gates pass, so a depth reject costs no token
    }
    return AdmissionVerdict::kAdmit;
  }

  void Refill() {
    pcr::Usec now = scheduler_.now();
    if (now > last_refill_) {
      tokens_ += options_.tokens_per_sec * static_cast<double>(now - last_refill_) / 1e6;
      if (tokens_ > burst_) {
        tokens_ = burst_;
      }
      last_refill_ = now;
    }
  }

  pcr::Scheduler& scheduler_;
  AdmissionOptions options_;
  double tokens_ = 0;
  double burst_ = 0;
  pcr::Usec last_refill_ = 0;
  int64_t admitted_ = 0;
  int64_t rejections_[4] = {0, 0, 0, 0};  // indexed by AdmissionVerdict
};

}  // namespace paradigm

#endif  // SRC_PARADIGM_ADMISSION_H_
