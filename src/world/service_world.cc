#include "src/world/service_world.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <random>
#include <utility>

#include "src/explore/hash.h"
#include "src/pcr/errors.h"

namespace world {

std::string_view RequestClassName(RequestClass cls) {
  switch (cls) {
    case RequestClass::kInteractive:
      return "interactive";
    case RequestClass::kBulk:
      return "bulk";
  }
  return "unknown";
}

std::string_view ServiceParadigmName(ServiceParadigm paradigm) {
  switch (paradigm) {
    case ServiceParadigm::kSerializer:
      return "serializer";
    case ServiceParadigm::kWorkQueue:
      return "work-queue";
    case ServiceParadigm::kPipeline:
      return "pipeline";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Shard construction
// ---------------------------------------------------------------------------

ServiceWorld::Shard::Shard(ServiceWorld& w, int i)
    : world(w), index(i),
      lock(w.runtime_.scheduler(), "shard" + std::to_string(i) + ".queue"),
      work_ready(lock, "shard" + std::to_string(i) + ".work-ready"),
      admission(w.runtime_.scheduler(), w.spec_.admission),
      connection(w.runtime_.scheduler(), "shard" + std::to_string(i) + ".x-connection"),
      xserver(w.runtime_, w.spec_.xserver_costs) {}

ServiceWorld::ServiceWorld(pcr::Runtime& runtime, ServiceSpec spec)
    : runtime_(runtime), spec_(std::move(spec)) {
  if (spec_.shards < 1 || spec_.clients < spec_.shards) {
    throw pcr::UsageError("service world: need >= 1 shard and >= 1 client per shard");
  }
  for (const LoadPhase& phase : spec_.phases) {
    horizon_ += phase.duration;
  }
  shards_.reserve(static_cast<size_t>(spec_.shards));
  for (int i = 0; i < spec_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(*this, i));
    Shard& shard = *shards_.back();
    std::string tag = "shard" + std::to_string(i);

    // Per-shard display stack: Xl batching client over the shard's own X server model, plus
    // the slack process that batches bulk paints (Section 5.2 economics, one per shard).
    shard.xl = std::make_unique<XlClient>(runtime_, shard.xserver, shard.connection);
    paradigm::SlackOptions slack_options;
    slack_options.policy = spec_.slack_policy;
    slack_options.priority = spec_.slack_priority;
    Shard* sp = &shard;
    shard.slack = std::make_unique<paradigm::SlackProcess<PaintRequest>>(
        runtime_, tag + ".x-buffer",
        [this, sp](std::vector<PaintRequest>&& batch) {
          // Latency is measured to hand-off into the X client: the slack process has done its
          // merging by now, so each surviving representative records one sample.
          pcr::Usec now = runtime_.now();
          for (const PaintRequest& paint : batch) {
            RecordLatency(RequestClass::kBulk, now - paint.created_at);
          }
          for (const PaintRequest& paint : batch) {
            sp->xl->SendRequest(paint);
          }
          sp->xl->Flush();
        },
        [](std::vector<PaintRequest>& batch) { XServerModel::MergeOverlapping(batch); },
        slack_options);

    // Servers, per paradigm.
    pcr::ForkOptions server_options;
    server_options.priority = spec_.server_priority;
    switch (spec_.paradigm) {
      case ServiceParadigm::kSerializer:
        server_options.name = tag + ".serializer";
        runtime_.ForkDetached([this, sp] { ServeLoop(*sp); }, std::move(server_options));
        break;
      case ServiceParadigm::kWorkQueue:
        for (int w = 0; w < std::max(1, spec_.workers_per_shard); ++w) {
          pcr::ForkOptions worker_options;
          worker_options.priority = spec_.server_priority;
          worker_options.name = tag + ".worker" + std::to_string(w);
          runtime_.ForkDetached([this, sp] { ServeLoop(*sp); }, std::move(worker_options));
        }
        break;
      case ServiceParadigm::kPipeline:
        shard.stage_q = std::make_unique<paradigm::BoundedBuffer<ServiceRequest>>(
            runtime_.scheduler(), tag + ".stage", std::max<size_t>(1, spec_.pipeline_depth));
        server_options.name = tag + ".parse";
        runtime_.ForkDetached([this, sp] { ServeLoop(*sp); }, std::move(server_options));
        runtime_.ForkDetached([this, sp] { ExecuteLoop(*sp); },
                              pcr::ForkOptions{.name = tag + ".execute",
                                               .priority = spec_.server_priority});
        break;
    }

    // The open-loop generator for this shard's slice of the client population.
    runtime_.ForkDetached([this, sp] { GeneratorLoop(*sp); },
                          pcr::ForkOptions{.name = tag + ".generator",
                                           .priority = spec_.generator_priority});
  }
}

ServiceWorld::~ServiceWorld() {
  // World threads reference world members: unwind them before the members are destroyed.
  runtime_.Shutdown();
}

// ---------------------------------------------------------------------------
// Admission, backpressure, brown-out (all under the shard monitor)
// ---------------------------------------------------------------------------

void ServiceWorld::UpdateBrownoutLocked(Shard& shard) {
  if (!spec_.brownout) {
    return;
  }
  pcr::Usec now = runtime_.now();
  if (DepthLocked(shard) >= spec_.brownout_high) {
    if (!shard.browned_out) {
      shard.browned_out = true;
      ++shard.brownouts;
    }
    // Every high-water crossing extends the hold: a sustained surge keeps the shard browned
    // instead of flapping once the purge empties the queue.
    shard.brownout_until = now + spec_.brownout_hold;
    // Shed the queued bulk backlog first — "drops low-priority paint batches, keeps
    // interactive requests flowing".
    while (!shard.bulk_q.empty() && DepthLocked(shard) > spec_.brownout_low) {
      shard.bulk_q.pop_front();
      ++shard.shed;
    }
  } else if (shard.browned_out && now >= shard.brownout_until &&
             DepthLocked(shard) <= spec_.brownout_low) {
    shard.browned_out = false;  // clean recovery: shedding stops entirely
  }
}

ServiceWorld::OfferOutcome ServiceWorld::Offer(Shard& shard, ServiceRequest request) {
  pcr::MonitorGuard guard(shard.lock);
  size_t depth = DepthLocked(shard);
  paradigm::AdmissionVerdict verdict = shard.admission.Admit(depth);
  if (verdict != paradigm::AdmissionVerdict::kAdmit) {
    return OfferOutcome::kRejected;
  }
  if (spec_.queue_capacity != 0 && depth >= spec_.queue_capacity) {
    ++shard.rejected_full;
    return OfferOutcome::kRejected;
  }
  UpdateBrownoutLocked(shard);
  if (shard.browned_out && request.cls == RequestClass::kBulk) {
    // Shed at the door: a browned-out shard will not buffer new bulk work. Not a rejection —
    // the generator must not burn retry budget re-offering work the shard chose to drop.
    ++shard.shed;
    return OfferOutcome::kShed;
  }
  if (request.cls == RequestClass::kInteractive) {
    shard.interactive_q.push_back(request);
  } else {
    shard.bulk_q.push_back(request);
  }
  shard.max_depth = std::max(shard.max_depth, DepthLocked(shard));
  UpdateBrownoutLocked(shard);
  ++shard.admitted;
  shard.work_ready.Notify();
  return OfferOutcome::kAdmitted;
}

bool ServiceWorld::PopLocked(Shard& shard, ServiceRequest* out) {
  if (!shard.interactive_q.empty()) {
    *out = shard.interactive_q.front();
    shard.interactive_q.pop_front();
  } else if (!shard.bulk_q.empty()) {
    *out = shard.bulk_q.front();
    shard.bulk_q.pop_front();
  } else {
    return false;
  }
  UpdateBrownoutLocked(shard);
  return true;
}

// ---------------------------------------------------------------------------
// Shard servers
// ---------------------------------------------------------------------------

void ServiceWorld::ServeLoop(Shard& shard) {
  const bool pipeline = spec_.paradigm == ServiceParadigm::kPipeline;
  while (true) {
    ServiceRequest request;
    {
      pcr::MonitorGuard guard(shard.lock);
      while (!PopLocked(shard, &request)) {
        shard.work_ready.Wait();
      }
    }
    if (pipeline) {
      // Stage 1 of the pump: parse/decode half of the service cost, then hand off through the
      // bounded stage buffer (blocking when the executor is behind — pipeline-internal
      // backpressure).
      pcr::thisthread::Compute(
          (request.cls == RequestClass::kInteractive ? spec_.interactive_cost
                                                     : spec_.bulk_cost) /
          2);
      shard.stage_q->Put(request);
    } else {
      ServeRequest(shard, request);
    }
  }
}

void ServiceWorld::ExecuteLoop(Shard& shard) {
  while (true) {
    std::optional<ServiceRequest> request = shard.stage_q->Take();
    if (!request.has_value()) {
      return;  // buffer closed
    }
    pcr::Scheduler& sched = runtime_.scheduler();
    if (uint64_t stall = sched.ConsultFault(pcr::FaultSite::kShardStall); stall != 0) {
      sched.Compute(static_cast<pcr::Usec>(stall) * sched.config().quantum);
    }
    pcr::thisthread::Compute(
        (request->cls == RequestClass::kInteractive ? spec_.interactive_cost
                                                    : spec_.bulk_cost) -
        (request->cls == RequestClass::kInteractive ? spec_.interactive_cost
                                                    : spec_.bulk_cost) /
            2);
    Deliver(shard, *request);
  }
}

void ServiceWorld::ServeRequest(Shard& shard, const ServiceRequest& request) {
  pcr::Scheduler& sched = runtime_.scheduler();
  // The shard-stall fault site: a wedged shard server (GC pause, page fault storm, a stuck
  // downstream) charges N quanta before this request is served — queueing delay every later
  // request in this shard inherits.
  if (uint64_t stall = sched.ConsultFault(pcr::FaultSite::kShardStall); stall != 0) {
    sched.Compute(static_cast<pcr::Usec>(stall) * sched.config().quantum);
  }
  pcr::thisthread::Compute(request.cls == RequestClass::kInteractive ? spec_.interactive_cost
                                                                     : spec_.bulk_cost);
  Deliver(shard, request);
}

void ServiceWorld::Deliver(Shard& shard, const ServiceRequest& request) {
  PaintRequest paint;
  paint.created_at = request.created_at;
  paint.window = request.client;
  paint.region = static_cast<int>(request.seq % 8);  // a few damage regions per client merge
  if (request.cls == RequestClass::kInteractive) {
    // The user is watching: flush immediately, no batching slack for the echo path.
    shard.xl->SendRequest(paint);
    shard.xl->Flush();
    RecordLatency(RequestClass::kInteractive, runtime_.now() - request.created_at);
    ++shard.completed_interactive;
  } else {
    shard.slack->Submit(paint);  // latency recorded at the slack flush, after merging
    ++shard.completed_bulk;
  }
}

void ServiceWorld::RecordLatency(RequestClass cls, pcr::Usec latency) {
  latency_[static_cast<size_t>(cls)].Add(latency < 0 ? 0 : latency);
}

// ---------------------------------------------------------------------------
// Open-loop generator
// ---------------------------------------------------------------------------

// Generator heap entry: a scheduled offer, fresh (attempt 0) or a budgeted retry.
struct ServiceWorld::Arrival {
  pcr::Usec due = 0;
  uint64_t order = 0;  // deterministic tie-break
  int client = 0;
  RequestClass cls = RequestClass::kBulk;
  int attempt = 0;
  pcr::Usec created_at = 0;

  bool operator>(const Arrival& other) const {
    return due != other.due ? due > other.due : order > other.order;
  }
};

void ServiceWorld::GeneratorLoop(Shard& shard) {
  // Seeded per shard: the shard's arrival stream is a deterministic function of (spec.seed,
  // shard index) alone — completions never feed back into it. That independence is what makes
  // the loop "open": a slow shard does not slow its clients down, it just grows a queue.
  std::mt19937_64 rng(spec_.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(shard.index) +
                      1);
  auto unit = [&rng]() {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // uniform in [0, 1)
  };

  // Phase table in absolute time, rates per client.
  struct PhaseSlot {
    pcr::Usec start, end;
    double per_client_rate;  // arrivals/sec for one client
    double interactive_fraction;
  };
  std::vector<PhaseSlot> slots;
  pcr::Usec cursor = 0;
  for (const LoadPhase& phase : spec_.phases) {
    PhaseSlot slot;
    slot.start = cursor;
    cursor += phase.duration;
    slot.end = cursor;
    slot.per_client_rate =
        phase.offered_per_sec > 0 ? phase.offered_per_sec / spec_.clients : 0;
    slot.interactive_fraction = phase.interactive_fraction >= 0 ? phase.interactive_fraction
                                                                : spec_.interactive_fraction;
    slots.push_back(slot);
  }
  auto slot_at = [&slots](pcr::Usec t) -> const PhaseSlot* {
    for (const PhaseSlot& slot : slots) {
      if (t < slot.end) {
        return &slot;
      }
    }
    return nullptr;
  };
  // Next arrival for one client at or after `from`: a unit-rate exponential draw mapped
  // through the piecewise-constant rate integral (the standard non-homogeneous Poisson
  // construction). A draw that spans a phase boundary spends its remaining mass at the next
  // phase's rate, so the offered rate is honored exactly through rate changes — a naive
  // per-phase draw would let a long low-rate gap coast straight across a surge.
  auto next_arrival = [&](pcr::Usec from) -> pcr::Usec {
    double mass = -std::log(1.0 - unit());  // Exp(1)
    pcr::Usec t = from;
    while (t < horizon_) {
      const PhaseSlot* slot = slot_at(t);
      if (slot == nullptr) {
        break;
      }
      if (slot->per_client_rate <= 0) {
        t = slot->end;
        continue;
      }
      double capacity =
          slot->per_client_rate * static_cast<double>(slot->end - t) / 1e6;
      if (mass <= capacity) {
        pcr::Usec gap = static_cast<pcr::Usec>(mass / slot->per_client_rate * 1e6);
        return t + std::max<pcr::Usec>(gap, 1);
      }
      mass -= capacity;
      t = slot->end;
    }
    return -1;  // no more traffic for this client
  };

  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>> heap;
  uint64_t order = 0;
  for (int client = shard.index; client < spec_.clients; client += spec_.shards) {
    pcr::Usec due = next_arrival(0);
    if (due >= 0) {
      heap.push(Arrival{.due = due, .order = order++, .client = client});
    }
  }

  while (!heap.empty()) {
    Arrival arrival = heap.top();
    heap.pop();
    pcr::Usec now = pcr::thisthread::Now();
    if (arrival.due > now) {
      pcr::thisthread::Sleep(arrival.due - now);
      now = pcr::thisthread::Now();
    }
    ServiceRequest request;
    request.client = arrival.client;
    request.seq = shard.next_seq++;
    if (arrival.attempt == 0) {
      // Fresh arrival: schedule this client's next think-time arrival *before* offering, and
      // from the nominal due time, not the processing time — the arrival process is a pure
      // function of the seed, never of how far behind the servers have pushed the generator.
      pcr::Usec next = next_arrival(arrival.due);
      if (next >= 0) {
        heap.push(Arrival{.due = next, .order = order++, .client = arrival.client});
      }
      const PhaseSlot* slot = slot_at(std::min(arrival.due, horizon_ - 1));
      double fraction = slot != nullptr ? slot->interactive_fraction : 0;
      request.cls =
          unit() < fraction ? RequestClass::kInteractive : RequestClass::kBulk;
      request.created_at = now;
      ++shard.arrivals;
    } else {
      request.cls = arrival.cls;
      request.created_at = arrival.created_at;
    }

    OfferOutcome outcome = Offer(shard, request);
    if (outcome != OfferOutcome::kRejected) {
      continue;  // admitted, or shed by brown-out (no retry: the shard chose to drop it)
    }
    if (arrival.attempt < spec_.retry_budget) {
      // Retry with budget: doubling backoff plus deterministic jitter, the kRetryBackoff
      // shape. The retried offer keeps its class and original arrival time, so the latency a
      // retried request eventually records includes every wait it was made to do.
      pcr::Usec backoff = spec_.retry_backoff > 0 ? spec_.retry_backoff << arrival.attempt
                                                  : runtime_.scheduler().config().quantum;
      pcr::Usec jitter =
          spec_.retry_jitter > 0
              ? static_cast<pcr::Usec>(rng() % static_cast<uint64_t>(spec_.retry_jitter + 1))
              : 0;
      ++shard.retries;
      heap.push(Arrival{.due = now + backoff + jitter,
                        .order = order++,
                        .client = arrival.client,
                        .cls = request.cls,
                        .attempt = arrival.attempt + 1,
                        .created_at = request.created_at});
    } else {
      ++shard.drops;
      if (request.cls == RequestClass::kInteractive) {
        ++shard.drops_interactive;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

size_t ServiceWorld::shard_depth(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  return s.interactive_q.size() + s.bulk_q.size();
}

bool ServiceWorld::browned_out(int shard) const {
  return shards_[static_cast<size_t>(shard)]->browned_out;
}

XServerModel& ServiceWorld::shard_xserver(int shard) {
  return shards_[static_cast<size_t>(shard)]->xserver;
}

const XClientStats& ServiceWorld::shard_xl_stats(int shard) const {
  return shards_[static_cast<size_t>(shard)]->xl->stats();
}

const paradigm::AdmissionController& ServiceWorld::shard_admission(int shard) const {
  return shards_[static_cast<size_t>(shard)]->admission;
}

int64_t ServiceWorld::shed_total() const {
  int64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->shed;
  }
  return total;
}

ServiceTotals ServiceWorld::Totals() const {
  ServiceTotals totals;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    totals.arrivals += shard->arrivals;
    totals.admitted += shard->admitted;
    totals.rejected_admission += shard->admission.rejected_total();
    totals.rejected_full += shard->rejected_full;
    totals.retries += shard->retries;
    totals.drops += shard->drops;
    totals.drops_interactive += shard->drops_interactive;
    totals.shed += shard->shed;
    totals.brownouts += shard->brownouts;
    totals.completed_interactive += shard->completed_interactive;
    totals.completed_bulk += shard->completed_bulk;
    totals.max_depth = std::max(totals.max_depth, shard->max_depth);
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

namespace {

ServiceClassStats FoldClass(const trace::Histogram& histogram, int64_t completed) {
  ServiceClassStats stats;
  stats.count = histogram.total_count();
  stats.completed = completed;
  stats.p50 = histogram.Percentile(0.50);
  stats.p99 = histogram.Percentile(0.99);
  stats.p999 = histogram.Percentile(0.999);
  stats.mean = stats.count == 0 ? 0
                                : static_cast<double>(histogram.total_weight()) /
                                      static_cast<double>(stats.count);
  return stats;
}

}  // namespace

ServiceRunResult RunServiceLoad(const ServiceSpec& spec, const ServiceRunOptions& options) {
  pcr::Config config;
  config.seed = spec.seed;
  config.quantum = options.quantum;
  pcr::Runtime runtime(config);
  ServiceWorld world(runtime, spec);
  if (options.setup) {
    options.setup(runtime, world);
  }
  pcr::Usec duration = world.horizon() + options.cooldown;
  runtime.RunFor(duration);

  ServiceRunResult result;
  result.totals = world.Totals();
  result.interactive =
      FoldClass(world.latency(RequestClass::kInteractive), result.totals.completed_interactive);
  result.bulk = FoldClass(world.latency(RequestClass::kBulk), result.totals.completed_bulk);
  result.trace_hash = explore::TraceHash(runtime.tracer());
  result.ran_for = duration;
  if (options.inspect) {
    options.inspect(runtime, world);
  }
  return result;
}

}  // namespace world
