// Scripted input devices: keyboards and mice as interrupt sources.
//
// User input reaches PCR as Unix I/O that wakes handler threads at arbitrary (non-tick) times;
// InputDevice pre-scripts those deliveries on the virtual clock with seeded jitter, so each
// benchmark's "user" is reproducible.

#ifndef SRC_WORLD_EVENTS_H_
#define SRC_WORLD_EVENTS_H_

#include <cstdint>
#include <string>

#include "src/pcr/interrupt.h"
#include "src/pcr/runtime.h"

namespace world {

// Payload encoding for input events.
enum class InputKind : uint8_t { kKey = 1, kMouseMove = 2, kMouseClick = 3 };

inline uint64_t EncodeInput(InputKind kind, uint32_t detail) {
  return (static_cast<uint64_t>(kind) << 32) | detail;
}
inline InputKind InputKindOf(uint64_t payload) {
  return static_cast<InputKind>(payload >> 32);
}
inline uint32_t InputDetailOf(uint64_t payload) { return static_cast<uint32_t>(payload); }

class InputDevice {
 public:
  // Devices share an InterruptSource so that one Notifier thread can watch them all (the
  // "keyboard-and-mouse watching process", Section 4.1).
  InputDevice(pcr::Runtime& runtime, pcr::InterruptSource& source);

  pcr::InterruptSource& source() { return source_; }

  // Scripts `kind` events from `start` to `end` at `rate` events/second with +/- `jitter`
  // fraction of the period (seeded by the runtime RNG, so runs are reproducible).
  void ScriptUniform(pcr::Usec start, pcr::Usec end, double rate, InputKind kind,
                     double jitter = 0.3);

  int64_t scripted() const { return scripted_; }

 private:
  pcr::Runtime& runtime_;
  pcr::InterruptSource& source_;
  int64_t scripted_ = 0;
  uint32_t sequence_ = 0;
};

}  // namespace world

#endif  // SRC_WORLD_EVENTS_H_
