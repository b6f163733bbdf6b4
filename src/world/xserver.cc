#include "src/world/xserver.h"

#include <algorithm>
#include <map>
#include <utility>

namespace world {

XServerModel::XServerModel(pcr::Runtime& runtime, Costs costs)
    : runtime_(runtime), costs_(costs) {}

bool XServerModel::Send(const std::vector<PaintRequest>& batch) {
  if (batch.empty()) {
    return true;
  }
  pcr::Scheduler& s = runtime_.scheduler();
  if (uint64_t down = s.ConsultFault(pcr::FaultSite::kXDrop); down != 0) {
    InjectDrop(static_cast<pcr::Usec>(down) * s.config().quantum);
  }
  if (!connected_) {
    // The client pays one flush charge to discover the broken connection; the batch stays
    // with the caller.
    s.Compute(costs_.per_flush);
    ++failed_sends_;
    return false;
  }
  if (uint64_t stall = s.ConsultFault(pcr::FaultSite::kXStall); stall != 0) {
    // A wedged (not lost) server: the send blocks the caller for the stall, then succeeds.
    s.Compute(static_cast<pcr::Usec>(stall) * s.config().quantum);
  }
  s.Compute(costs_.per_flush + costs_.per_request * static_cast<pcr::Usec>(batch.size()));
  ++flushes_;
  requests_received_ += static_cast<int64_t>(batch.size());
  pcr::Usec now = runtime_.now();
  for (const PaintRequest& request : batch) {
    pcr::Usec latency = now - request.created_at;
    echo_latency_.Add(latency);
    max_echo_latency_ = std::max(max_echo_latency_, latency);
    if (record_requests_) {
      received_log_.push_back(request);
    }
  }
  return true;
}

bool XServerModel::TryReconnect() {
  if (connected_) {
    return true;
  }
  runtime_.scheduler().Compute(costs_.per_flush);
  if (runtime_.now() < earliest_reconnect_) {
    return false;
  }
  connected_ = true;
  ++reconnects_;
  return true;
}

void XServerModel::InjectDrop(pcr::Usec downtime) {
  if (connected_) {
    connected_ = false;
    ++drops_;
  }
  earliest_reconnect_ = std::max(earliest_reconnect_, runtime_.now() + downtime);
}

void XServerModel::MergeOverlapping(std::vector<PaintRequest>& batch) {
  // Later data replaces earlier data for the same damage region; order of first appearance is
  // preserved so the screen still paints in request order.
  std::map<std::pair<int, int>, size_t> latest;
  std::vector<PaintRequest> merged;
  merged.reserve(batch.size());
  for (const PaintRequest& request : batch) {
    auto key = std::make_pair(request.window, request.region);
    auto it = latest.find(key);
    if (it == latest.end()) {
      latest[key] = merged.size();
      merged.push_back(request);
    } else {
      pcr::Usec created = merged[it->second].created_at;
      merged[it->second] = request;
      merged[it->second].created_at = created;  // latency measured from the first damage
    }
  }
  batch.swap(merged);
}

}  // namespace world
