// Runtime: the public face of the PCR reproduction.
//
// Owns the tracer, the scheduler, the paradigm census, and the optional SystemDaemon. Typical
// use:
//
//   pcr::Runtime rt;                       // or Runtime(config)
//   pcr::MonitorLock lock(rt.scheduler(), "my-module");
//   pcr::Condition ready(lock, "ready", 50 * pcr::kUsecPerMsec);
//   rt.Fork([&] { ... });                  // set up threads (host context)
//   rt.RunFor(30 * pcr::kUsecPerSec);      // run virtual time
//   trace::Summary s = trace::Summarize(rt.tracer());
//
// Threads are fibers on a virtual clock; see scheduler.h for the model. The Runtime destructor
// shuts down all live threads, so it must be destroyed *before* any monitors/CVs its threads
// still reference — in practice: declare the Runtime after them, or call Shutdown() explicitly
// first. Shutdown normally unwinds each live thread (it sees ThreadKilled from its blocking
// call). Under a checkpoint walk (Scheduler::set_checkpoint_hook) it discards them instead,
// without running the destructors on their stacks (see Scheduler::Shutdown).

#ifndef SRC_PCR_RUNTIME_H_
#define SRC_PCR_RUNTIME_H_

#include <functional>

#include "src/pcr/condition.h"
#include "src/pcr/config.h"
#include "src/pcr/interrupt.h"
#include "src/pcr/monitor.h"
#include "src/pcr/scheduler.h"
#include "src/trace/census.h"
#include "src/trace/tracer.h"

namespace pcr {

class Runtime {
 public:
  explicit Runtime(Config config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const Config& config() const { return scheduler_.config(); }
  Scheduler& scheduler() { return scheduler_; }
  trace::Tracer& tracer() { return tracer_; }
  trace::Census& census() { return census_; }
  Usec now() const { return scheduler_.now(); }

  // Thread API passthroughs (see Scheduler for semantics).
  ThreadId Fork(std::function<void()> body, ForkOptions options = {}) {
    return scheduler_.Fork(std::move(body), std::move(options));
  }
  // Fork with an error path instead of a throw; honors ForkOptions::on_failure.
  ForkResult TryFork(std::function<void()> body, ForkOptions options = {}) {
    return scheduler_.TryFork(std::move(body), std::move(options));
  }
  // Fork + Detach in one step, for fire-and-forget threads.
  ThreadId ForkDetached(std::function<void()> body, ForkOptions options = {});
  void Join(ThreadId tid) { scheduler_.Join(tid); }
  void Detach(ThreadId tid) { scheduler_.Detach(tid); }

  // Runs virtual time forward. Starts the SystemDaemon on first run if configured.
  RunStatus RunFor(Usec duration);
  RunStatus RunUntilQuiescent(Usec max_duration);
  QuiescentInfo quiescent_info() const { return scheduler_.quiescent_info(); }

  void Shutdown() { scheduler_.Shutdown(); }

  // The runtime currently executing on this OS thread (set during Run*), or nullptr. Lets
  // library code reach the runtime without threading a reference everywhere.
  static Runtime* Current();
  // Checkpoint plumbing: Run* maintains Current() around the run-loop call, but a checkpoint
  // restore rewinds stacks into the *middle* of that call — the thread-local must be put back
  // alongside them or resumed fibers see no current runtime (pcr::Checkpoint uses this).
  static void SetCurrent(Runtime* rt);

 private:
  void EnsureSystemDaemon();

  trace::Tracer tracer_;
  trace::Census census_;
  Scheduler scheduler_;
  bool system_daemon_started_ = false;
};

// Convenience wrappers for fiber code, resolving through Runtime::Current(). They throw
// UsageError outside a running runtime.
namespace thisthread {

Runtime& runtime();
void Compute(Usec duration);
void Sleep(Usec duration);
void Yield();
void YieldButNotToMe();
void SetPriority(int priority);
Usec Now();
ThreadId Id();
// Emits a free-form kUser trace event from workload code (shows up in event-history dumps).
void Annotate(ObjectId object, uint64_t arg = 0);

}  // namespace thisthread

}  // namespace pcr

#endif  // SRC_PCR_RUNTIME_H_
