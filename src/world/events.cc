#include "src/world/events.h"

namespace world {

InputDevice::InputDevice(pcr::Runtime& runtime, pcr::InterruptSource& source)
    : runtime_(runtime), source_(source) {}

void InputDevice::ScriptUniform(pcr::Usec start, pcr::Usec end, double rate, InputKind kind,
                                double jitter) {
  if (rate <= 0) {
    return;
  }
  auto period = static_cast<pcr::Usec>(1e6 / rate);
  for (pcr::Usec t = start; t < end; t += period) {
    // Jitter comes from the scheduler-owned, seed-logged RNG so that repro strings capture it.
    double noise = (2.0 * runtime_.scheduler().RandomUnit() - 1.0) * jitter;
    auto offset = static_cast<pcr::Usec>(noise * static_cast<double>(period));
    pcr::Usec when = t + offset;
    if (when < start || when >= end) {
      continue;
    }
    source_.PostAt(when, EncodeInput(kind, sequence_++));
    ++scripted_;
  }
}

}  // namespace world
