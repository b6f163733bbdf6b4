// Fiber context-switch microbenchmark: the assembly fast path vs raw swapcontext.
//
// The paper's Table 1 numbers bottom out in how fast a user-level context switch can be, and
// §2 puts a thread switch under 50 us on a SPARCstation-2 (F10); this bench measures ours.
// Four arms:
//
//   ucontext_switch   raw swapcontext ping-pong — the portable baseline. Every switch pays a
//                     sigprocmask syscall to save/restore the signal mask.
//   fiber_switch      pcr::Fiber Resume/Suspend ping-pong — whatever backend the build chose
//                     (assembly by default, ucontext under PCR_FIBER_UCONTEXT).
//   fiber_spawn_cold  create + run-to-completion + destroy, fresh mmap'd stack every time.
//   fiber_spawn_pool  same through a StackPool — what the scheduler's FORK path actually does.
//
//   bench_fiber_switch                          # human-readable table
//   bench_fiber_switch --require-speedup=6.14   # exit 1 unless fiber_switch is >= 6.14x faster
//                                               # than ucontext_switch (no-op on ucontext
//                                               # builds: the two arms are the same mechanism)

#include <ucontext.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "src/pcr/context.h"
#include "src/pcr/fiber.h"
#include "src/pcr/stack.h"

namespace {

struct Args {
  double require_speedup = 0;  // <= 0: no gate
  long switch_iters = 200000;  // ping-pong round trips (2 switches each)
  long spawn_iters = 20000;    // create/run/destroy cycles
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_fiber_switch [--require-speedup=N] [--iters=N]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--require-speedup=")) {
      char* end = nullptr;
      double n = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || n <= 0) {
        std::fprintf(stderr,
                     "bench_fiber_switch: --require-speedup expects a positive number, "
                     "got '%s'\n",
                     v);
        return false;
      }
      args->require_speedup = n;
    } else if (const char* v = value("--iters=")) {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "bench_fiber_switch: --iters expects a positive integer, got '%s'\n",
                     v);
        return false;
      }
      args->switch_iters = n;
      args->spawn_iters = std::max(1L, n / 10);
    } else {
      std::fprintf(stderr, "bench_fiber_switch: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

using Clock = std::chrono::steady_clock;

int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Best of three reps: microbenchmark noise is one-sided (interrupts only ever add time).
template <typename F>
int64_t BestOfThree(F&& run) {
  int64_t best = run();
  for (int rep = 1; rep < 3; ++rep) {
    best = std::min(best, run());
  }
  return best;
}

// --- Arm 1: raw swapcontext ping-pong -------------------------------------------------------

ucontext_t g_uc_main;
ucontext_t g_uc_fiber;

void UcontextBody() {
  for (;;) {
    swapcontext(&g_uc_fiber, &g_uc_main);
  }
}

double UcontextSwitchNs(long iters) {
  pcr::FiberStack stack(64 * 1024);
  getcontext(&g_uc_fiber);
  g_uc_fiber.uc_stack.ss_sp = stack.base();
  g_uc_fiber.uc_stack.ss_size = stack.size();
  g_uc_fiber.uc_link = nullptr;
  makecontext(&g_uc_fiber, &UcontextBody, 0);

  int64_t best = BestOfThree([iters] {
    auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) {
      swapcontext(&g_uc_main, &g_uc_fiber);
    }
    return NsBetween(t0, Clock::now());
  });
  // The fiber is parked inside its loop; it never returns, so the stack just unmaps.
  return static_cast<double>(best) / (static_cast<double>(iters) * 2);
}

// --- Arm 2: pcr::Fiber ping-pong ------------------------------------------------------------

double FiberSwitchNs(long iters) {
  pcr::Fiber* self = nullptr;
  pcr::Fiber fiber([&self] {
    for (;;) {
      self->Suspend();
    }
  }, 64 * 1024);
  self = &fiber;

  int64_t best = BestOfThree([iters, &fiber] {
    auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) {
      fiber.Resume();
    }
    return NsBetween(t0, Clock::now());
  });
  return static_cast<double>(best) / (static_cast<double>(iters) * 2);
}

// --- Arms 3 & 4: fiber lifecycle, cold stacks vs pooled -------------------------------------

double FiberSpawnColdNs(long iters) {
  int64_t best = BestOfThree([iters] {
    auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) {
      pcr::Fiber fiber([] {}, 64 * 1024);
      fiber.Resume();
    }
    return NsBetween(t0, Clock::now());
  });
  return static_cast<double>(best) / static_cast<double>(iters);
}

double FiberSpawnPooledNs(long iters) {
  pcr::StackPool pool;
  int64_t best = BestOfThree([iters, &pool] {
    auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) {
      pcr::FiberStack stack = pool.Acquire(64 * 1024);
      pcr::Fiber fiber([] {}, std::move(stack), &pool);
      fiber.Resume();
    }
    return NsBetween(t0, Clock::now());
  });
  return static_cast<double>(best) / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  const char* backend = PCR_FIBER_USE_UCONTEXT ? "ucontext" : "asm";

  double ucontext_ns = UcontextSwitchNs(args.switch_iters);
  double fiber_ns = FiberSwitchNs(args.switch_iters);
  double spawn_cold_ns = FiberSpawnColdNs(args.spawn_iters);
  double spawn_pool_ns = FiberSpawnPooledNs(args.spawn_iters);
  double speedup = fiber_ns > 0 ? ucontext_ns / fiber_ns : 0;

  std::printf("fiber backend:        %s\n", backend);
  std::printf("ucontext_switch:      %8.1f ns/switch\n", ucontext_ns);
  std::printf("fiber_switch:         %8.1f ns/switch (%.1fx vs ucontext)\n", fiber_ns, speedup);
  std::printf("fiber_spawn_cold:     %8.1f ns/fiber\n", spawn_cold_ns);
  std::printf("fiber_spawn_pool:     %8.1f ns/fiber (%.1fx vs cold)\n", spawn_pool_ns,
              spawn_cold_ns > 0 && spawn_pool_ns > 0 ? spawn_cold_ns / spawn_pool_ns : 0);

  if (args.require_speedup > 0) {
    if (PCR_FIBER_USE_UCONTEXT) {
      std::printf("speedup gate skipped: fiber backend is ucontext on this build\n");
    } else if (speedup < args.require_speedup) {
      std::fprintf(stderr,
                   "bench_fiber_switch: fiber_switch speedup %.2fx is below the required "
                   "%.2fx\n",
                   speedup, args.require_speedup);
      return 1;
    } else {
      std::printf("speedup gate passed: %.2fx >= %.2fx\n", speedup, args.require_speedup);
    }
  }
  return 0;
}
