#include "src/world/library.h"

namespace world {

ModuleLibrary::ModuleLibrary(pcr::Runtime& runtime, std::string name, int modules) {
  monitors_.reserve(static_cast<size_t>(modules));
  for (int i = 0; i < modules; ++i) {
    monitors_.push_back(std::make_unique<pcr::MonitorLock>(runtime.scheduler(),
                                                           name + "." + std::to_string(i)));
  }
}

void ModuleLibrary::Call(uint64_t key, pcr::Usec cost) {
  pcr::MonitorLock& monitor = *monitors_[key % monitors_.size()];
  pcr::MonitorGuard guard(monitor);
  monitor.scheduler().Compute(cost);
  ++calls_;
}

void ModuleLibrary::CallRange(uint64_t base, int count, pcr::Usec cost_each) {
  for (int i = 0; i < count; ++i) {
    Call(base + static_cast<uint64_t>(i), cost_each);
  }
}

}  // namespace world
