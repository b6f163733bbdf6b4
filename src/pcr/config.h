// Runtime configuration: scheduler shape, cost model, and the ablation switches used by the
// paper-reproduction benchmarks.

#ifndef SRC_PCR_CONFIG_H_
#define SRC_PCR_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/pcr/ids.h"

namespace pcr {

class StackPool;

// Virtual-time costs charged by runtime primitives. The paper reports that PCR's scheduler
// "takes less than 50 microseconds to switch between threads on a Sparcstation-2" (Section 2)
// and that fork overhead is "significant" relative to very short callbacks (Section 4.5); these
// defaults keep those relationships while remaining configurable for sensitivity studies.
struct CostModel {
  Usec context_switch = 30;  // charged to the incoming thread on each dispatch
  Usec fork = 250;           // charged to the forking thread
  Usec join = 10;
  Usec monitor_enter = 2;
  Usec monitor_exit = 2;
  Usec cv_wait = 5;
  Usec cv_notify = 5;
  Usec yield = 5;
  Usec interrupt_dispatch = 10;  // charged to a thread consuming an external event
};

enum class SchedulingPolicy : uint8_t {
  // PCR's model: the highest-priority ready thread always runs; higher-priority wakeups preempt
  // instantly (Section 2).
  kStrictPriority,
  // The Section 6.2 alternative: "threads at each priority progress at a rate proportional to a
  // function of the current distribution of threads among priorities" — implemented as
  // proportional-share selection by accumulated CPU over priority weight, with rescheduling
  // only at quantum ticks. Better long-term shares, worse "moment-by-moment processor
  // allocation to meet near-real-time requirements".
  kFairShare,
};

enum class ForkFailureMode : uint8_t {
  // Older Cedar behaviour: raise an error when thread resources are exhausted (Section 5.4).
  kError,
  // "Our more recent implementations simply wait in the fork implementation for more resources
  // to become available" (Section 5.4).
  kWait,
};

struct Config {
  // Number of simulated processors. The systems in the paper are mostly uniprocessor-hearted;
  // multiprocessor runs are used for the spurious-lock-conflict experiment (Section 6.1).
  int processors = 1;

  SchedulingPolicy scheduling = SchedulingPolicy::kStrictPriority;

  // Timeslice quantum; also the condition-variable timeout granularity ("The timeslice interval
  // and the CV timeout granularity in the current implementation are each 50 milliseconds",
  // Section 2). Section 6.3 sweeps this value.
  Usec quantum = 50 * kUsecPerMsec;

  // Maximum concurrently-live threads before Fork fails or waits (Section 5.4). PCR reserved
  // 100 kB of stack per thread, which made thread counts a real resource.
  int max_threads = 4096;
  ForkFailureMode fork_failure = ForkFailureMode::kWait;

  // Abort the process when any fiber body dies of an uncaught exception (after the stderr
  // report naming the thread and exception). Off by default: a detached thread's death is
  // counted (uncaught_exits) and reported, but the simulation keeps running — matching the
  // paper's systems, where one crashed helper thread did not take down the world.
  bool fatal_uncaught = false;

  // The fix for spurious lock conflicts: "defer processor rescheduling, but not the notification
  // itself, until after monitor exit" (Section 6.1). Disable to reproduce the conflict.
  bool defer_notify_reschedule = true;

  // Enforce the Mesa rule that NOTIFY/BROADCAST require the monitor lock (Section 2).
  bool require_lock_for_notify = true;

  // Detect self-deadlock and cyclic monitor waits, raising DeadlockError in the blocking thread.
  bool detect_deadlock = true;

  // The PCR SystemDaemon: "a high-priority sleeper thread that regularly wakes up and donates,
  // using a directed yield, a small timeslice to another thread chosen at random" (Section 5.2).
  bool enable_system_daemon = false;
  Usec system_daemon_period = 200 * kUsecPerMsec;

  // Priority inheritance from blocked threads to monitor holders — the technique the paper
  // *declined* to implement ("we chose not to incur the implementation overhead of providing
  // priority inheritance", Section 5.2) and then flagged as future work for interactive systems
  // (Section 6.2). Off by default to match PCR; the inversion bench reports on the result.
  bool priority_inheritance = false;

  // Fiber stack size. PCR allocated the maximum possible stack eagerly, which is why forked
  // sleepers fell into disfavor (Section 5.1); we allocate lazily at first dispatch but keep the
  // per-thread cost real.
  size_t stack_bytes = 64 * 1024;

  // Where fiber stacks come from. nullptr: the scheduler uses a private pool (stacks are still
  // recycled across FORKs within the run). Non-null: an external pool — not owned, must
  // outlive the Runtime, and must not be shared across OS threads (StackPool is
  // thread-compatible, not thread-safe). The explorer points each of its workers' runs at a
  // per-worker pool so warm stacks survive from one schedule to the next.
  StackPool* stack_pool = nullptr;

  // Seed for the runtime RNG (SystemDaemon choice and workload generators).
  uint64_t seed = 1;

  // Record trace events (Tables 1-3 and histograms need this on).
  bool trace_events = true;

  // Feed the runtime metrics registry (scheduler/monitor/CV counters and histograms,
  // src/trace/metrics.h). Independent of trace_events: metrics are the cheap always-on channel
  // for runs too long to keep an event buffer.
  bool metrics = true;

  CostModel costs;
};

}  // namespace pcr

#endif  // SRC_PCR_CONFIG_H_
