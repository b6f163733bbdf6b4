// Runtime checkpoint/restore for checkpoint-and-branch exploration.
//
// A Checkpoint snapshots everything a deterministic run depends on — scheduler scalars and
// queues, the virtual clock, the timer list, pending interrupts, every live fiber's stack
// bytes and saved context, monitor/condition/weak-cell state, and the tracer's event buffer —
// so the explorer can rewind a paused execution to a decision point and branch into a
// different suffix without re-executing the shared prefix. Restore is same-address: fiber
// stacks are memcpy'd back into the very mapping they ran on (saved stack pointers and every
// frame-internal pointer stay valid), which requires the stacks to stay checked out of the
// StackPool for the checkpoint's lifetime. The Checkpoint pins their threads (Tcb::pins, and
// a pinned thread's retired fiber waits in Tcb::limbo); destroying the checkpoint unpins.
//
// Scope and limits (see docs/INTERNALS.md "Checkpoint-and-branch exploration"):
//   * Only state reachable from the Scheduler plus registered Checkpointables is captured.
//     Scenario bodies must keep their mutable state on checkpointed stacks (the exec fiber's
//     stack or simulated-thread stacks) — heap state owned from the host frame is invisible.
//   * While a checkpoint hook is installed, Scheduler::Shutdown discards live threads instead
//     of unwinding them, and Restore rewinds or drops their fibers as it finds them. A frame
//     overwritten or released that way never runs its destructors, so a simulated thread's
//     frames may own heap only through registered Checkpointables, whose teardown frees it.
//   * Supported() is false under ASan/TSan (fake-stack bookkeeping cannot be snapshotted) and
//     on the ucontext fiber backend (ucontext_t is not relocatable-by-memcpy in general).
//     Callers fall back to from-zero replay.

#ifndef SRC_PCR_CHECKPOINT_H_
#define SRC_PCR_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace trace {
class Tracer;
}  // namespace trace

namespace pcr {

class Fiber;
class Scheduler;

// Thrown through a paused exec fiber to unwind it when its group is abandoned mid-run (the
// last branch ended in a pruned/copied suffix, so the fiber never runs to completion).
// Deliberately NOT derived from std::exception: scenario bodies are wrapped in
// catch (const std::exception&) and must not observe the abort.
struct CheckpointAbort {};

// Opaque saved state for one Checkpointable, held by the Checkpoint that took it.
struct CheckpointedObjectState {
  std::vector<char> bytes;  // raw object image (the object's own size)
  std::vector<char> extra;  // object-specific serialized heap state
};

// Tiny append/read serialization helpers for CheckpointedObjectState::extra. Length-prefixed,
// host-endian — the state never leaves the process.
namespace ckpt {

template <typename T>
void AppendPod(std::vector<char>* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* p = reinterpret_cast<const char*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
T ReadPod(const char** cursor) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, *cursor, sizeof(T));
  *cursor += sizeof(T);
  return value;
}

inline void AppendString(std::vector<char>* out, const std::string& s) {
  AppendPod<uint64_t>(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

inline std::string ReadString(const char** cursor) {
  uint64_t n = ReadPod<uint64_t>(cursor);
  std::string s(*cursor, static_cast<size_t>(n));
  *cursor += n;
  return s;
}

// Serializes any container of trivially-copyable elements with forward iteration.
template <typename Container>
void AppendPodRange(std::vector<char>* out, const Container& container) {
  AppendPod<uint64_t>(out, static_cast<uint64_t>(container.size()));
  for (const auto& element : container) {
    AppendPod(out, element);
  }
}

// Reads back into any container supporting push_back.
template <typename Container>
void ReadPodRange(const char** cursor, Container* container) {
  uint64_t n = ReadPod<uint64_t>(cursor);
  for (uint64_t i = 0; i < n; ++i) {
    container->push_back(ReadPod<typename Container::value_type>(cursor));
  }
}

}  // namespace ckpt

// Implemented by runtime objects that own heap state (queues, strings) living outside the
// checkpointed stacks. Objects register with the scheduler at construction and unregister at
// destruction; the Checkpoint snapshots each registrant and replays the snapshot on Restore.
//
// Restore protocol for an object alive at both snapshot and restore time:
//   1. CheckpointTeardown() — destroy (explicit destructor calls) exactly the heap-owning
//      members that CheckpointRestore placement-news, freeing current heap.
//   2. The checkpoint memcpy's the saved byte image over the object (heap-owning members now
//      hold dangling snapshot-time bit patterns).
//   3. CheckpointRestore(state) — placement-new the heap-owning members from `state.extra`
//      and reassign any scalars the byte image cannot carry.
// An object alive at snapshot time but already destroyed at restore time is revived as a
// shell: the checkpoint memcpy's the image into its (still-valid, on a checkpointed stack)
// storage and calls CheckpointRestore WITHOUT a prior teardown — its destructor already freed
// the heap when it died, and the restored run will destroy it again on scope exit.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  // Serializes heap-owning members into `state->extra` (the byte image is taken by the
  // checkpoint itself).
  virtual void CheckpointSave(CheckpointedObjectState* state) const = 0;
  virtual void CheckpointTeardown() = 0;
  virtual void CheckpointRestore(const CheckpointedObjectState& state) = 0;
  // Object storage address; must live on a checkpointed stack (or outlive all checkpoints).
  virtual void* CheckpointStorage() = 0;
  virtual size_t CheckpointStorageBytes() const = 0;

 private:
  friend class Scheduler;
  // This object's index in the scheduler's registry, so that unregistering costs O(1). It rides
  // the object's byte image, which Restore puts back together with the registry it indexes.
  size_t registry_slot_ = 0;
};

// Snapshot of a Scheduler (+ tracer + exec fiber) at a quiescent pause point: taken from the
// host frame while every fiber, including the exec fiber driving the run, is suspended.
class Checkpoint {
 public:
  // Snapshots `scheduler` and `tracer` now. `exec_fiber` (may be null) is the fiber the
  // scenario body runs on; its stack is saved/restored like a thread fiber's so that Restore
  // rewinds the body itself. All fibers must be suspended (no fiber may be running).
  Checkpoint(Scheduler& scheduler, trace::Tracer& tracer, Fiber* exec_fiber);
  ~Checkpoint();

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  // Rewinds scheduler/tracer/fibers to the snapshot. May be called repeatedly (branching).
  // Checkpoints nest LIFO per thread, and Restore may only target the newest live checkpoint:
  // an inner snapshot's pinned fibers describe frames an outer restore would overwrite.
  // Violations abort with a diagnostic rather than corrupt fiber stacks.
  void Restore();

  // Total bytes captured (stack images + container payloads); observability only.
  size_t bytes() const { return bytes_; }

  // False when checkpointing cannot work in this build: sanitizers track per-fiber shadow
  // state a memcpy cannot rewind, and the ucontext backend's ucontext_t is not safely
  // restorable by byte copy. Callers must use from-zero replay instead.
  static bool Supported();

 private:
  struct State;
  std::unique_ptr<State> state_;
  Scheduler& scheduler_;
  trace::Tracer& tracer_;
  Fiber* exec_fiber_;
  size_t bytes_ = 0;
};

}  // namespace pcr

#endif  // SRC_PCR_CHECKPOINT_H_
