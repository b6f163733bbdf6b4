#include "src/trace/serialize.h"

#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace trace {

namespace {
constexpr char kHeader[] = "pcr-trace v2";
// Symbol lines: "#sym\t<id>\t<name to end of line>". They precede the event records so a
// streaming reader has the table before the first event that references it.
constexpr char kSymPrefix[] = "#sym\t";
}  // namespace

size_t WriteTrace(std::ostream& os, const Tracer& tracer) {
  os << kHeader << "\n";
  const SymbolTable& symbols = tracer.symbols();
  for (uint32_t id = 1; id < symbols.size(); ++id) {  // id 0 is always ""
    os << kSymPrefix << id << '\t' << symbols.Name(id) << '\n';
  }
  for (const Event& e : tracer.view()) {
    os << e.time_us << '\t' << static_cast<int>(e.type) << '\t'
       << static_cast<int>(e.priority) << '\t' << e.processor << '\t' << e.thread << '\t'
       << e.object << '\t' << e.arg << '\t' << e.thread_sym << '\t' << e.object_sym << '\n';
  }
  return tracer.size();
}

int64_t ReadTrace(std::istream& is, Tracer* tracer) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    return -1;
  }
  // File symbol id -> id in the target tracer's table (which may already hold other names when
  // appending to a used tracer).
  std::vector<uint32_t> sym_map(1, 0);
  auto remap = [&sym_map](uint32_t file_id) -> uint32_t {
    return file_id < sym_map.size() ? sym_map[file_id] : 0;
  };
  int64_t count = 0;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    if (line.compare(0, sizeof(kSymPrefix) - 1, kSymPrefix) == 0) {
      size_t tab = line.find('\t', sizeof(kSymPrefix) - 1);
      if (tab == std::string::npos) {
        return -1;
      }
      const char* id_begin = line.c_str() + sizeof(kSymPrefix) - 1;
      char* id_end = nullptr;
      unsigned long parsed = std::strtoul(id_begin, &id_end, 10);
      if (id_end != line.c_str() + tab) {
        return -1;
      }
      uint32_t file_id = static_cast<uint32_t>(parsed);
      if (file_id != sym_map.size()) {
        return -1;  // symbol lines must be dense and in order
      }
      sym_map.push_back(tracer->symbols().Intern(line.substr(tab + 1)));
      continue;
    }
    std::istringstream fields(line);
    Event e;
    int64_t time = 0;
    int type = 0;
    int priority = 0;
    uint32_t processor = 0;
    uint32_t thread_sym = 0;
    uint32_t object_sym = 0;
    if (!(fields >> time >> type >> priority >> processor >> e.thread >> e.object >> e.arg >>
          thread_sym >> object_sym)) {
      return -1;
    }
    e.thread_sym = remap(thread_sym);
    e.object_sym = remap(object_sym);
    e.time_us = time;
    e.type = static_cast<EventType>(type);
    e.priority = static_cast<uint8_t>(priority);
    e.processor = static_cast<uint16_t>(processor);
    tracer->Record(e);
    ++count;
  }
  return count;
}

bool SaveTraceFile(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteTrace(out, tracer);
  return static_cast<bool>(out);
}

bool LoadTraceFile(const std::string& path, Tracer* tracer) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  return ReadTrace(in, tracer) >= 0;
}

}  // namespace trace
