#include "src/explore/perturbers.h"

#include <algorithm>

#include "src/trace/tracer.h"

namespace explore {

bool DecidePreempt(const PerturbPolicy& policy, const std::vector<uint64_t>& sorted_change_points,
                   uint64_t preempt_index, SplitMix64& rng) {
  if (std::binary_search(sorted_change_points.begin(), sorted_change_points.end(),
                         preempt_index)) {
    return true;
  }
  if (policy.preempt_probability <= 0.0) {
    return false;
  }
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  return coin(rng) < policy.preempt_probability;
}

size_t DecidePick(const PerturbPolicy& policy, size_t count, SplitMix64& rng) {
  if (policy.shuffle_probability <= 0.0 || count <= 1) {
    return 0;
  }
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(rng) >= policy.shuffle_probability) {
    return 0;
  }
  std::uniform_int_distribution<size_t> pick(0, std::min<size_t>(count, 16) - 1);
  return pick(rng);
}

RecordingPerturber::RecordingPerturber(const PerturbPolicy& policy)
    : policy_(policy), rng_(policy.seed) {
  std::sort(policy_.change_points.begin(), policy_.change_points.end());
}

void RecordingPerturber::Record(Decision d) {
  if (decisions_.size() < kMaxRecordedDecisions) {
    decisions_.push_back(d);
  }
}

void RecordingPerturber::AtConsult() {
  uint64_t index = consults_++;
  if (segment_hook_ == nullptr) {
    return;
  }
  if (next_level_ <= depths_.size() && index == depths_[next_level_ - 1]) {
    int level =
        static_cast<int>(next_level_++);  // advanced before the call: the hook may
                                          // checkpoint-pause mid-statement
    (*segment_hook_)(level);
  }
  // No member access after the hook returns — see the header comment on AtConsult.
}

bool RecordingPerturber::ForcePreempt(pcr::PreemptPoint /*point*/, pcr::ThreadId /*current*/) {
  AtConsult();
  uint64_t index = preempt_points_seen_++;
  if (decisions_.size() >= kMaxRecordedDecisions) {
    return false;  // stopped recording; must answer the replayer's past-end default
  }
  const bool fire = DecidePreempt(policy_, policy_.change_points, index, rng_);
  Record(fire ? 1 : 0);
  if (log_tracer_ != nullptr && consult_log_.size() < kMaxRecordedDecisions) {
    consult_log_.push_back({log_tracer_->size(), index, 0, kConsultForcePreempt,
                            static_cast<uint8_t>(fire ? 1 : 0)});
  }
  return fire;
}

size_t RecordingPerturber::PickNext(const pcr::ThreadId* /*candidates*/, size_t count) {
  AtConsult();
  if (decisions_.size() >= kMaxRecordedDecisions) {
    return 0;
  }
  const size_t choice = DecidePick(policy_, count, rng_);
  Record(static_cast<Decision>(choice));
  if (log_tracer_ != nullptr && consult_log_.size() < kMaxRecordedDecisions) {
    consult_log_.push_back({log_tracer_->size(), 0, static_cast<uint32_t>(count),
                            kConsultPickNext, static_cast<uint8_t>(choice)});
  }
  return choice;
}

ReplayPerturber::ReplayPerturber(std::vector<Decision> decisions)
    : decisions_(std::move(decisions)) {}

Decision ReplayPerturber::Next() {
  Decision d = cursor_ < decisions_.size() ? decisions_[cursor_] : 0;
  ++cursor_;
  if (consumed_.size() < kMaxRecordedDecisions) {
    consumed_.push_back(d);
  }
  return d;
}

bool ReplayPerturber::ForcePreempt(pcr::PreemptPoint /*point*/, pcr::ThreadId /*current*/) {
  return Next() != 0;
}

size_t ReplayPerturber::PickNext(const pcr::ThreadId* /*candidates*/, size_t count) {
  size_t choice = Next();
  return choice < count ? choice : 0;
}

}  // namespace explore
