// The layer suite of a traced run: probes that time one layer of src/ each, plus the layer
// counters and A/B ratios read from one pass of every workload. Every probe builds its Runtime
// outside the timed loop and sinks every result.

#ifndef HOSTBENCH_SUITE_H_
#define HOSTBENCH_SUITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hostbench/bench_util.h"
#include "hostbench/workloads.h"

namespace hostbench {

struct LayerMetric {
  std::string name;  // "<layer>.<op>", e.g. "pcr.fiber.switch_ns"
  std::string unit;
  Spread value;
};

struct SuiteResult {
  std::vector<LayerMetric> metrics;
  int attempted = 0;  // workload ops the suite ran, all checked like the timed passes
  int failed = 0;
};

// `smoke` shrinks the probe loops along with `sizes`.
SuiteResult RunLayerSuite(uint64_t seed, const Sizes& sizes, bool smoke, SpanLog& spans);

}  // namespace hostbench

#endif  // HOSTBENCH_SUITE_H_
