#include "src/pcr/runtime.h"

namespace pcr {

namespace {
thread_local Runtime* g_current_runtime = nullptr;
}  // namespace

Runtime::Runtime(Config config) : scheduler_(config, &tracer_) {}

Runtime::~Runtime() { Shutdown(); }

Runtime* Runtime::Current() { return g_current_runtime; }

void Runtime::SetCurrent(Runtime* rt) { g_current_runtime = rt; }

ThreadId Runtime::ForkDetached(std::function<void()> body, ForkOptions options) {
  ThreadId tid = scheduler_.Fork(std::move(body), std::move(options));
  scheduler_.Detach(tid);
  return tid;
}

RunStatus Runtime::RunFor(Usec duration) {
  EnsureSystemDaemon();
  Runtime* previous = g_current_runtime;
  g_current_runtime = this;
  RunStatus status = scheduler_.RunFor(duration);
  g_current_runtime = previous;
  return status;
}

RunStatus Runtime::RunUntilQuiescent(Usec max_duration) {
  EnsureSystemDaemon();
  Runtime* previous = g_current_runtime;
  g_current_runtime = this;
  RunStatus status = scheduler_.RunUntilQuiescent(max_duration);
  g_current_runtime = previous;
  return status;
}

void Runtime::EnsureSystemDaemon() {
  if (!config().enable_system_daemon || system_daemon_started_) {
    return;
  }
  system_daemon_started_ = true;
  // "PCR utilizes a high-priority sleeper thread that regularly wakes up and donates, using a
  // directed yield, a small timeslice to another thread chosen at random. In this way we ensure
  // that all ready threads get some cpu resource, regardless of their priorities" (Section 5.2).
  ForkDetached(
      [this] {
        while (true) {
          scheduler_.Sleep(config().system_daemon_period);
          ThreadId target = scheduler_.RandomReadyThread();
          if (target != kNoThread) {
            scheduler_.DirectedYield(target);
          }
        }
      },
      ForkOptions{.name = "SystemDaemon", .priority = 6});
}

namespace thisthread {

Runtime& runtime() {
  Runtime* rt = Runtime::Current();
  if (rt == nullptr) {
    throw UsageError("pcr: thisthread:: call outside a running runtime");
  }
  return *rt;
}

void Compute(Usec duration) { runtime().scheduler().Compute(duration); }
void Sleep(Usec duration) { runtime().scheduler().Sleep(duration); }
void Yield() { runtime().scheduler().Yield(); }
void YieldButNotToMe() { runtime().scheduler().YieldButNotToMe(); }
void SetPriority(int priority) { runtime().scheduler().SetPriority(priority); }
Usec Now() { return runtime().scheduler().now(); }
ThreadId Id() { return runtime().scheduler().current(); }
void Annotate(ObjectId object, uint64_t arg) {
  runtime().scheduler().Emit(trace::EventType::kUser, object, arg);
}

}  // namespace thisthread

}  // namespace pcr
