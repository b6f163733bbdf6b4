#include "src/trace/metrics.h"

#include <ostream>

#include "src/trace/json.h"

namespace trace {

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    os << (first ? "\n" : ",\n") << "    ";
    WriteJsonString(os, name);
    os << ": " << counter.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    os << (first ? "\n" : ",\n") << "    ";
    WriteJsonString(os, name);
    os << ": {\"count\": " << histogram.count() << ", \"sum\": " << histogram.sum()
       << ", \"max\": " << histogram.max() << ", \"buckets\": [";
    int last = -1;
    for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
      if (histogram.bucket_count(b) != 0) {
        last = b;
      }
    }
    for (int b = 0; b <= last; ++b) {
      os << (b == 0 ? "" : ", ") << histogram.bucket_count(b);
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace trace
