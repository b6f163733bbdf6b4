#include "src/explore/repro.h"

#include <cctype>
#include <utility>

#include "src/pcr/errors.h"

namespace explore {

namespace {

constexpr char kMagic[] = "pcr1";

char HexDigit(Decision d) {
  return d < 10 ? static_cast<char>('0' + d) : static_cast<char>('a' + (d - 10));
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

}  // namespace

std::vector<Decision> TrimTrailingDefaults(std::vector<Decision> decisions) {
  while (!decisions.empty() && decisions.back() == 0) {
    decisions.pop_back();
  }
  return decisions;
}

std::string Repro::Encode() const {
  const std::string fault_text = fault_plan.enabled() ? fault_plan.Encode() : std::string();
  // One encode per replayed schedule: build in place with a single reservation instead of
  // chaining temporary strings (the worst case is one hex digit per decision).
  std::string out;
  out.reserve(sizeof(kMagic) + scenario.size() + 24 + decisions.size() + fault_text.size() + 2);
  out += kMagic;
  out += ':';
  out += scenario;
  out += ':';
  char seed_buf[21];  // max uint64 is 20 digits
  char* seed_end = seed_buf + sizeof(seed_buf);
  char* seed_p = seed_end;
  uint64_t seed = runtime_seed;
  do {
    *--seed_p = static_cast<char>('0' + seed % 10);
    seed /= 10;
  } while (seed != 0);
  out.append(seed_p, seed_end);
  out += ':';
  size_t i = 0;
  while (i < decisions.size()) {
    Decision value = decisions[i] > 15 ? 15 : decisions[i];
    size_t run = 1;
    while (i + run < decisions.size() &&
           (decisions[i + run] > 15 ? 15 : decisions[i + run]) == value) {
      ++run;
    }
    out += HexDigit(value);
    if (run > 1) {
      // The count is decimal and would be ambiguous against a following hex digit, so it is
      // always terminated with 'x'.
      char run_buf[21];
      char* run_end = run_buf + sizeof(run_buf);
      char* run_p = run_end;
      size_t n = run;
      do {
        *--run_p = static_cast<char>('0' + n % 10);
        n /= 10;
      } while (n != 0);
      out += 'r';
      out.append(run_p, run_end);
      out += 'x';
    }
    i += run;
  }
  if (!fault_text.empty()) {
    out += ':';
    out += fault_text;
  }
  return out;
}

bool Repro::Decode(const std::string& text, Repro* out) {
  size_t p1 = text.find(':');
  if (p1 == std::string::npos || text.substr(0, p1) != kMagic) {
    return false;
  }
  size_t p2 = text.find(':', p1 + 1);
  size_t p3 = p2 == std::string::npos ? std::string::npos : text.find(':', p2 + 1);
  if (p3 == std::string::npos) {
    return false;
  }
  std::string name = text.substr(p1 + 1, p2 - p1 - 1);
  std::string seed_str = text.substr(p2 + 1, p3 - p2 - 1);
  if (name.empty() || seed_str.empty()) {
    return false;
  }
  uint64_t seed = 0;
  for (char c : seed_str) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
    seed = seed * 10 + static_cast<uint64_t>(c - '0');
  }
  // The decision field ends at the optional fifth colon; everything after it is the fault
  // plan (fault::Plan::Decode owns that grammar).
  size_t p4 = text.find(':', p3 + 1);
  size_t decisions_end = p4 == std::string::npos ? text.size() : p4;
  std::string fault_text =
      p4 == std::string::npos ? std::string() : text.substr(p4 + 1);
  if (p4 != std::string::npos && fault_text.empty()) {
    return false;  // a trailing ':' with nothing after it is malformed, not "no faults"
  }
  std::vector<Decision> parsed;
  size_t i = p3 + 1;
  while (i < decisions_end) {
    int value = HexValue(text[i]);
    if (value < 0) {
      return false;
    }
    ++i;
    size_t run = 1;
    if (i < decisions_end && text[i] == 'r') {
      ++i;
      size_t start = i;
      run = 0;
      while (i < decisions_end && std::isdigit(static_cast<unsigned char>(text[i]))) {
        run = run * 10 + static_cast<size_t>(text[i] - '0');
        ++i;
      }
      if (i == start || run == 0 || i >= decisions_end || text[i] != 'x') {
        return false;
      }
      if (i - start > 9) {
        return false;  // >9 digits can only describe an oversized stream; reject before it
      }
      ++i;  // the 'x' terminator
    }
    if (run > kMaxReproDecisions || parsed.size() + run > kMaxReproDecisions) {
      return false;  // oversized decision stream (see kMaxReproDecisions)
    }
    parsed.insert(parsed.end(), run, static_cast<Decision>(value));
  }
  fault::Plan plan;
  try {
    plan = fault::Plan::Decode(fault_text);
  } catch (const pcr::UsageError&) {
    return false;
  }
  *out = Repro{std::move(name), seed, std::move(parsed), std::move(plan)};
  return true;
}

}  // namespace explore
