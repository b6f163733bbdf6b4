// "Cedar as a service": an open-loop, sharded load world for the overload-robustness study.
//
// The paper measured one workstation — ~35 threads, arrivals gated by the single user at the
// keyboard (a closed loop: the user waits for the echo before typing on). This world asks the
// ROADMAP's scaling question: what happens to the Section 5.2 slack-process/batching economics
// when the same machinery serves thousands of clients whose arrivals do NOT wait for
// completions? Concretely:
//
//   * An open-loop traffic generator: N simulated clients with exponential think times, driven
//     by one generator fiber per shard off a time-ordered arrival heap (not one fiber per
//     client — 2,000 clients would mean 2,000 stacks for threads that mostly sleep). Arrivals
//     are scheduled from the seeded think-time draws alone, independent of completions, so
//     queues behind an overloaded shard genuinely grow without bound.
//   * K shards, each a miniature Cedar display stack: a class-prioritized request queue, a
//     server (paradigm-selectable, see ServiceParadigm), a slack process batching bulk paints,
//     and an XlClient fronting the shard's own XServerModel — per-shard batching, per-shard
//     backoff-reconnect, per-shard slack, exactly the PR 5 machinery under load.
//   * The robustness layer this world exists to test: admission control at the shard door
//     (src/paradigm/admission.h), bounded queues whose fullness propagates back to the
//     generator as rejection + retry-with-budget (capped retries, doubling backoff with
//     deterministic jitter — the ForkOptions kRetryBackoff shape applied to requests), and
//     brown-out degradation that sheds low-priority bulk paints first while interactive
//     requests keep flowing.
//
// Request classes: kInteractive models the echo path (high priority, flushed immediately —
// the user is watching); kBulk models repaint/format traffic (batched through the slack
// process, merged via XServerModel::MergeOverlapping, and the first thing shed under
// overload). Latency is measured from arrival (creation) to hand-off into the X client —
// queueing + service + batching slack — and recorded per class in bucket histograms whose
// Percentile() yields the p50/p99/p999 of bench_service_load's table in tests/behaviour.lock.
//
// Everything is deterministic given (spec, seed): same seed, byte-identical trace — the
// acceptance property tests/service_world_test.cc holds across explore::WorkerPool worker
// counts. docs/WORLDS.md walks through the knobs and how to read the collapse curves.

#ifndef SRC_WORLD_SERVICE_WORLD_H_
#define SRC_WORLD_SERVICE_WORLD_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/paradigm/admission.h"
#include "src/paradigm/bounded_buffer.h"
#include "src/paradigm/slack_process.h"
#include "src/pcr/condition.h"
#include "src/pcr/interrupt.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/trace/histogram.h"
#include "src/world/xclient.h"
#include "src/world/xserver.h"

namespace world {

enum class RequestClass : uint8_t { kInteractive, kBulk };
inline constexpr int kNumRequestClasses = 2;
std::string_view RequestClassName(RequestClass cls);

// How a shard turns queued requests into served requests — the paradigm axis of the load
// sweep (which of the paper's structures holds up at scale, ROADMAP "Million-client world"):
//   * kSerializer — one eternal server thread per shard drains the queue in order, the MBQueue
//     discipline of Section 4.6.
//   * kWorkQueue  — `workers_per_shard` eternal workers share the queue, the worker-pool shape
//     of src/paradigm/work_queue.h.
//   * kPipeline   — a two-stage pump: the server thread parses and hands off through a
//     paradigm::BoundedBuffer to an executor thread (Section 4.2 pump pipelines).
enum class ServiceParadigm : uint8_t { kSerializer, kWorkQueue, kPipeline };
std::string_view ServiceParadigmName(ServiceParadigm paradigm);

// One segment of the offered-load profile, consumed in order. Aggregate arrival rate across
// all clients; interactive_fraction < 0 inherits ServiceSpec::interactive_fraction. Phases
// let one run script overload-then-recover (the brown-out test) without two runtimes.
struct LoadPhase {
  pcr::Usec duration = 0;
  double offered_per_sec = 0;
  double interactive_fraction = -1;
};

struct ServiceSpec {
  int clients = 2000;
  int shards = 4;
  uint64_t seed = 1;
  std::vector<LoadPhase> phases;       // empty: no traffic (world idles)
  double interactive_fraction = 0.2;   // default class mix where a phase does not override

  ServiceParadigm paradigm = ServiceParadigm::kSerializer;
  int workers_per_shard = 2;           // kWorkQueue only
  size_t pipeline_depth = 8;           // kPipeline stage buffer capacity

  // Service cost charged by the shard server per request, before X delivery costs.
  pcr::Usec interactive_cost = 250;
  pcr::Usec bulk_cost = 120;

  // Backpressure: bounded per-shard queue (0 = unbounded — the configuration the
  // backlog-growth watchdog exists to flag) and the generator's retry budget for rejected
  // offers: capped retries with doubling backoff plus deterministic jitter drawn from the
  // generator's seeded RNG (the kRetryBackoff shape, applied to requests).
  size_t queue_capacity = 64;
  int retry_budget = 3;
  pcr::Usec retry_backoff = 20 * pcr::kUsecPerMsec;
  pcr::Usec retry_jitter = 5 * pcr::kUsecPerMsec;

  // Admission control at the shard door (consulted before capacity, under the shard monitor).
  paradigm::AdmissionOptions admission;

  // Brown-out: when a shard's depth crosses the high watermark it enters brown-out — queued
  // bulk is purged down to the low watermark and incoming bulk is shed at the door — and
  // holds for at least `brownout_hold` so a sustained surge stays shed rather than flapping
  // per request. Interactive requests are never shed. Recovery: depth at or below the low
  // watermark once the hold expires.
  bool brownout = false;
  size_t brownout_high = 48;
  size_t brownout_low = 16;
  pcr::Usec brownout_hold = 250 * pcr::kUsecPerMsec;

  // The shard's display stack.
  paradigm::SlackPolicy slack_policy = paradigm::SlackPolicy::kYieldButNotToMe;
  int slack_priority = 5;
  int server_priority = pcr::kDefaultPriority;
  int generator_priority = 6;  // the arrival process must not be starved by the servers
  XServerCosts xserver_costs{.per_flush = 300, .per_request = 40};
};

struct ServiceTotals {
  int64_t arrivals = 0;            // fresh arrivals offered (retries not re-counted)
  int64_t admitted = 0;            // offers that entered a shard queue
  int64_t rejected_admission = 0;  // admission-controller rejections (rate+depth+fault)
  int64_t rejected_full = 0;       // bounded-queue-full rejections (backpressure)
  int64_t retries = 0;             // re-offers scheduled by the retry budget
  int64_t drops = 0;               // requests abandoned after exhausting the budget
  int64_t drops_interactive = 0;   //   ... of which interactive
  int64_t shed = 0;                // bulk requests shed by brown-out (door + purge)
  int64_t brownouts = 0;           // brown-out episodes entered
  int64_t completed_interactive = 0;
  int64_t completed_bulk = 0;
  size_t max_depth = 0;            // deepest any shard queue ever got
};

class ServiceWorld {
 public:
  ServiceWorld(pcr::Runtime& runtime, ServiceSpec spec = ServiceSpec());
  ~ServiceWorld();

  ServiceWorld(const ServiceWorld&) = delete;
  ServiceWorld& operator=(const ServiceWorld&) = delete;

  pcr::Runtime& runtime() { return runtime_; }
  const ServiceSpec& spec() const { return spec_; }
  int shards() const { return spec_.shards; }
  // Sum of phase durations: traffic stops here; run a little longer to drain.
  pcr::Usec horizon() const { return horizon_; }

  // Snapshot reads. The runtime is cooperatively scheduled on one OS thread, so reading
  // without the shard monitor is race-free from the host between RunFor calls and from any
  // fiber (e.g. the watchdog daemon's WatchQueue probe).
  size_t shard_depth(int shard) const;
  bool browned_out(int shard) const;
  XServerModel& shard_xserver(int shard);
  const XClientStats& shard_xl_stats(int shard) const;
  const paradigm::AdmissionController& shard_admission(int shard) const;

  const trace::Histogram& latency(RequestClass cls) const {
    return latency_[static_cast<size_t>(cls)];
  }
  int64_t shed_total() const;
  ServiceTotals Totals() const;

 private:
  struct ServiceRequest {
    pcr::Usec created_at = 0;  // first arrival time; preserved across retries
    RequestClass cls = RequestClass::kBulk;
    int client = 0;
    uint32_t seq = 0;  // per-shard sequence, used as the damage-region key
  };

  struct Arrival;  // generator heap entry (service_world.cc)

  struct Shard {
    explicit Shard(ServiceWorld& world, int index);

    ServiceWorld& world;
    const int index;
    pcr::MonitorLock lock;
    pcr::Condition work_ready;
    std::deque<ServiceRequest> interactive_q;
    std::deque<ServiceRequest> bulk_q;
    paradigm::AdmissionController admission;
    bool browned_out = false;
    pcr::Usec brownout_until = 0;

    pcr::InterruptSource connection;
    XServerModel xserver;
    std::unique_ptr<XlClient> xl;
    std::unique_ptr<paradigm::SlackProcess<PaintRequest>> slack;
    std::unique_ptr<paradigm::BoundedBuffer<ServiceRequest>> stage_q;  // kPipeline only

    int64_t arrivals = 0;
    int64_t admitted = 0;
    int64_t rejected_full = 0;
    int64_t retries = 0;
    int64_t drops = 0;
    int64_t drops_interactive = 0;
    int64_t shed = 0;
    int64_t brownouts = 0;
    int64_t completed_interactive = 0;
    int64_t completed_bulk = 0;
    size_t max_depth = 0;
    uint32_t next_seq = 0;
  };

  enum class OfferOutcome { kAdmitted, kShed, kRejected };

  size_t DepthLocked(const Shard& shard) const {
    return shard.interactive_q.size() + shard.bulk_q.size();
  }
  void UpdateBrownoutLocked(Shard& shard);
  OfferOutcome Offer(Shard& shard, ServiceRequest request);
  bool PopLocked(Shard& shard, ServiceRequest* out);
  void ServeLoop(Shard& shard);
  void ExecuteLoop(Shard& shard);  // kPipeline stage 2
  void ServeRequest(Shard& shard, const ServiceRequest& request);
  void Deliver(Shard& shard, const ServiceRequest& request);
  void RecordLatency(RequestClass cls, pcr::Usec latency);
  void GeneratorLoop(Shard& shard);

  pcr::Runtime& runtime_;
  ServiceSpec spec_;
  pcr::Usec horizon_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Per-class arrival->hand-off latency, 500 us buckets up to 2 s (p999 resolution well below
  // the collapse-knee latencies the bench reads off these).
  trace::Histogram latency_[kNumRequestClasses] = {trace::Histogram(500, 4000),
                                                   trace::Histogram(500, 4000)};
};

// ---------------------------------------------------------------------------
// One-shot runner
// ---------------------------------------------------------------------------

struct ServiceClassStats {
  int64_t count = 0;       // latency samples recorded (bulk: post-merge representatives)
  int64_t completed = 0;   // requests served (bulk: pre-merge)
  pcr::Usec p50 = 0;
  pcr::Usec p99 = 0;
  pcr::Usec p999 = 0;
  double mean = 0;
};

struct ServiceRunResult {
  ServiceTotals totals;
  ServiceClassStats interactive;
  ServiceClassStats bulk;
  uint64_t trace_hash = 0;  // explore::TraceHash of the full run — the determinism witness
  pcr::Usec ran_for = 0;
};

struct ServiceRunOptions {
  // The load study wants latency resolution below the default 50 ms quantum (sleeps and CV
  // timeouts quantize to it), so the runner defaults to a 5 ms tick.
  pcr::Usec quantum = 5 * pcr::kUsecPerMsec;
  pcr::Usec cooldown = 500 * pcr::kUsecPerMsec;  // extra run time after the last phase
  // Attach points for injectors/watchdogs (setup: before the clock starts) and for reading
  // world state before teardown (inspect: after the run, runtime still alive).
  std::function<void(pcr::Runtime&, ServiceWorld&)> setup;
  std::function<void(pcr::Runtime&, ServiceWorld&)> inspect;
};

// Builds a runtime + world from `spec`, runs horizon + cooldown of virtual time, and folds the
// percentiles. Deterministic: equal (spec, options) means an equal trace_hash.
ServiceRunResult RunServiceLoad(const ServiceSpec& spec,
                                const ServiceRunOptions& options = ServiceRunOptions());

}  // namespace world

#endif  // SRC_WORLD_SERVICE_WORLD_H_
