// Future-work ablation: fork-per-task (the measured systems' style) vs a worker-pool work
// queue, across task granularities.
//
// Section 5.1: "The designer must balance the modest cost of creating a thread against the
// benefits in structural simplification ... If there is very little state associated with a
// thread this may be a very inefficient use of memory." With the cost model's 250 us fork and a
// stack per transient, the crossover is measurable.

#include <cstdio>

#include "src/paradigm/work_queue.h"
#include "src/pcr/runtime.h"

namespace {

struct Result {
  pcr::Usec completion_us = 0;
  int64_t forks = 0;
  size_t peak_stack = 0;
};

constexpr int kTasks = 1000;

Result RunForkPerTask(pcr::Usec task_cost) {
  pcr::Config config;
  config.trace_events = false;
  pcr::Runtime rt(config);
  int done = 0;
  rt.ForkDetached([&] {
    for (int i = 0; i < kTasks; ++i) {
      rt.ForkDetached(
          [&rt, &done, task_cost] {
            pcr::thisthread::Compute(task_cost);
            ++done;
            (void)rt;
          },
          pcr::ForkOptions{.name = "transient", .priority = 3});
    }
  });
  rt.RunUntilQuiescent(300 * pcr::kUsecPerSec);
  Result result;
  result.completion_us = rt.now();
  result.forks = rt.scheduler().thread_count();
  result.peak_stack = rt.scheduler().peak_stack_bytes_reserved();
  rt.Shutdown();
  return result;
}

Result RunWorkQueue(pcr::Usec task_cost) {
  pcr::Config config;
  config.trace_events = false;
  pcr::Runtime rt(config);
  paradigm::WorkQueue pool(rt, "pool", paradigm::WorkQueueOptions{.workers = 4, .priority = 3});
  int done = 0;
  rt.ForkDetached([&] {
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&done, task_cost] {
        pcr::thisthread::Compute(task_cost);
        ++done;
      });
    }
    pool.Drain();
  });
  rt.RunFor(300 * pcr::kUsecPerSec);
  Result result;
  result.completion_us = rt.now();  // approximate: quiescence never comes (eternal workers)
  // Measure actual completion via the drain point instead: rerun bookkeeping below.
  result.forks = rt.scheduler().thread_count();
  result.peak_stack = rt.scheduler().peak_stack_bytes_reserved();
  rt.Shutdown();
  return result;
}

// Completion time for the pool measured precisely: poll until everything completed.
pcr::Usec PoolCompletionTime(pcr::Usec task_cost) {
  pcr::Config config;
  config.trace_events = false;
  pcr::Runtime rt(config);
  paradigm::WorkQueue pool(rt, "pool", paradigm::WorkQueueOptions{.workers = 4, .priority = 3});
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([task_cost] { pcr::thisthread::Compute(task_cost); });
  }
  while (pool.completed() < kTasks && rt.now() < 300 * pcr::kUsecPerSec) {
    rt.RunFor(5 * pcr::kUsecPerMsec);
  }
  pcr::Usec when = rt.now();
  rt.Shutdown();
  return when;
}

}  // namespace

int main() {
  std::printf("=== Future-work ablation: fork-per-task vs worker-pool work queue ===\n");
  std::printf("%d tasks; fork cost 250 us; 4 pool workers; 64 kB stacks\n\n", kTasks);
  std::printf("%12s | %22s | %22s | %10s\n", "task size", "fork-per-task compl/stack",
              "work-queue compl/stack", "speedup");
  for (int i = 0; i < 80; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
  for (pcr::Usec task : {pcr::Usec{50}, pcr::Usec{200}, pcr::Usec{1000}, pcr::Usec{5000}}) {
    Result forked = RunForkPerTask(task);
    Result pooled = RunWorkQueue(task);
    pcr::Usec pool_completion = PoolCompletionTime(task);
    std::printf("%9lld us | %12.1f ms %6.1f MB | %12.1f ms %6.1f MB | %8.2fx\n",
                static_cast<long long>(task), forked.completion_us / 1000.0,
                forked.peak_stack / 1048576.0, pool_completion / 1000.0,
                pooled.peak_stack / 1048576.0,
                static_cast<double>(forked.completion_us) /
                    static_cast<double>(pool_completion));
  }
  std::printf("\nFor fine-grained work the 250 us fork dominates (pool several times faster, "
              "constant memory);\nby ~5 ms tasks the fork cost is noise and the two designs "
              "converge — the paper's 'modest cost'\njudgement, quantified. The transient-fork "
              "style keeps its structural-simplicity advantage either way.\n");
  return 0;
}
