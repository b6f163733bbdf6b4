#include "src/fault/fault.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/pcr/errors.h"
#include "src/trace/event.h"

namespace fault {

namespace {

std::string FormatRate(double rate) {
  char buf[64];
  // %.17g round-trips any double exactly, keeping Encode(Decode(x)) == canonical form of x.
  std::snprintf(buf, sizeof(buf), "%.17g", rate);
  return buf;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

uint64_t ParseU64(const std::string& text, const std::string& what) {
  char* end = nullptr;
  uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    throw pcr::UsageError("fault: bad " + what + " in plan: '" + text + "'");
  }
  return value;
}

}  // namespace

bool ParseFaultSite(const std::string& name, FaultSite* out) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    if (name == trace::FaultSiteName(site)) {
      *out = site;
      return true;
    }
  }
  return false;
}

std::string Plan::Encode() const {
  std::string text = "f1";
  if (seed != 1) {
    text += ",seed=" + std::to_string(seed);
  }
  if (rate > 0) {
    text += ",rate=" + FormatRate(rate);
    if (value != 1) {
      text += ",val=" + std::to_string(value);
    }
    std::string sites;
    for (int i = 0; i < kNumFaultSites; ++i) {
      if (site_mask & (1u << i)) {
        if (!sites.empty()) {
          sites += '+';
        }
        sites += trace::FaultSiteName(static_cast<FaultSite>(i));
      }
    }
    text += ",sites=" + sites;
  }
  for (const ScriptedFault& s : script) {
    text += ',';
    text += trace::FaultSiteName(s.site);
    text += '@' + std::to_string(s.index);
    if (s.value != 1) {
      text += '~' + std::to_string(s.value);
    }
  }
  return text;
}

Plan Plan::Decode(const std::string& text) {
  Plan plan;
  if (text.empty()) {
    return plan;
  }
  std::vector<std::string> parts = SplitOn(text, ',');
  if (parts.empty() || parts[0] != "f1") {
    throw pcr::UsageError("fault: plan must start with 'f1': '" + text + "'");
  }
  for (size_t i = 1; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    if (part.empty()) {
      throw pcr::UsageError("fault: empty directive in plan: '" + text + "'");
    }
    size_t eq = part.find('=');
    if (eq != std::string::npos) {
      std::string key = part.substr(0, eq);
      std::string val = part.substr(eq + 1);
      if (key == "seed") {
        plan.seed = ParseU64(val, "seed");
      } else if (key == "rate") {
        char* end = nullptr;
        plan.rate = std::strtod(val.c_str(), &end);
        if (val.empty() || end == nullptr || *end != '\0' || plan.rate < 0 || plan.rate > 1) {
          throw pcr::UsageError("fault: bad rate in plan: '" + val + "'");
        }
      } else if (key == "val") {
        plan.value = ParseU64(val, "val");
      } else if (key == "sites") {
        for (const std::string& name : SplitOn(val, '+')) {
          FaultSite site;
          if (!ParseFaultSite(name, &site)) {
            throw pcr::UsageError("fault: unknown site '" + name + "' in plan");
          }
          plan.site_mask |= SiteBit(site);
        }
      } else {
        throw pcr::UsageError("fault: unknown directive '" + key + "' in plan");
      }
      continue;
    }
    // Scripted entry: <site>@<index>[~<value>]
    size_t at = part.find('@');
    if (at == std::string::npos) {
      throw pcr::UsageError("fault: bad directive '" + part + "' in plan");
    }
    ScriptedFault scripted;
    if (!ParseFaultSite(part.substr(0, at), &scripted.site)) {
      throw pcr::UsageError("fault: unknown site '" + part.substr(0, at) + "' in plan");
    }
    std::string rest = part.substr(at + 1);
    size_t tilde = rest.find('~');
    if (tilde != std::string::npos) {
      scripted.value = ParseU64(rest.substr(tilde + 1), "value");
      rest = rest.substr(0, tilde);
    }
    scripted.index = ParseU64(rest, "index");
    if (plan.script.size() >= kMaxPlanScriptEntries) {
      throw pcr::UsageError("fault: plan script exceeds " +
                            std::to_string(kMaxPlanScriptEntries) + " entries");
    }
    plan.script.push_back(scripted);
  }
  return plan;
}

Plan MutatePlan(const Plan& plan, std::mt19937_64& rng) {
  Plan out = plan;
  auto draw = [&rng](uint64_t n) { return n == 0 ? 0 : rng() % n; };
  switch (draw(6)) {
    case 0:  // append a scripted fault; biased toward early consult indices
      if (out.script.size() < kMaxPlanScriptEntries) {
        ScriptedFault s;
        s.site = static_cast<FaultSite>(draw(kNumFaultSites));
        s.index = draw(16);
        s.value = 1 + draw(3);
        out.script.push_back(s);
      }
      break;
    case 1:  // drop one scripted entry
      if (!out.script.empty()) {
        out.script.erase(out.script.begin() + static_cast<ptrdiff_t>(draw(out.script.size())));
      }
      break;
    case 2:  // re-aim one scripted entry
      if (!out.script.empty()) {
        ScriptedFault& s = out.script[draw(out.script.size())];
        if (draw(2) == 0) {
          s.index = draw(32);
        } else {
          s.value = 1 + draw(4);
        }
      }
      break;
    case 3:  // redraw the probabilistic seed (re-sweeps every rate draw)
      out.seed = rng() | 1;
      break;
    case 4: {  // arm or re-arm a small probabilistic rate over a random site set
      out.rate = 0.01 * static_cast<double>(1 + draw(10));
      out.site_mask = static_cast<uint32_t>(1 + draw((1u << kNumFaultSites) - 1));
      break;
    }
    default:  // disarm the probabilistic layer; scripted entries survive
      out.rate = 0;
      out.site_mask = 0;
      break;
  }
  return out;
}

Injector::Injector(Plan plan) : plan_(std::move(plan)) { Reset(); }

void Injector::set_plan(Plan plan) {
  plan_ = std::move(plan);
  Reset();
}

void Injector::Reset() {
  if (plan_.rate > 0 && plan_.site_mask != 0) {
    rng_.emplace(plan_.seed);
  } else {
    rng_.reset();
  }
  for (uint64_t& c : consults_) {
    c = 0;
  }
  fired_.clear();
}

uint64_t Injector::OnFaultPoint(FaultSite site) {
  uint64_t index = consults_[static_cast<unsigned>(site)]++;
  uint64_t value = 0;
  for (const ScriptedFault& s : plan_.script) {
    if (s.site == site && s.index == index) {
      value = s.value;
      break;
    }
  }
  if (value == 0 && plan_.rate > 0 && (plan_.site_mask & SiteBit(site)) != 0) {
    // One RNG step per consult at an armed site, and only there: arming or scripting one site
    // never shifts another site's draw sequence.
    double draw = static_cast<double>((*rng_)() >> 11) * 0x1.0p-53;
    if (draw < plan_.rate) {
      value = plan_.value;
    }
  }
  if (value != 0) {
    fired_.push_back(ScriptedFault{site, index, value});
  }
  return value;
}

}  // namespace fault
