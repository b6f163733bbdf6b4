#include "src/analysis/table.h"

#include <iomanip>
#include <sstream>
#include <ostream>

#include "src/analysis/paper_reference.h"

namespace analysis {

namespace {

constexpr pcr::Usec kMs = pcr::kUsecPerMsec;

void PrintRule(std::ostream& os, int width) {
  for (int i = 0; i < width; ++i) {
    os << '-';
  }
  os << "\n";
}

}  // namespace

std::vector<world::ScenarioResult> RunAllScenarios(world::ScenarioOptions options) {
  std::vector<world::ScenarioResult> results;
  for (world::Scenario scenario : world::AllScenarios()) {
    results.push_back(world::RunScenario(scenario, options));
  }
  return results;
}

void PrintTable1(std::ostream& os, const std::vector<world::ScenarioResult>& results) {
  os << "Table 1: Forking and thread-switching rates (paper -> measured)\n";
  os << std::left << std::setw(26) << "Benchmark" << std::right << std::setw(10) << "Forks/s"
     << std::setw(12) << "(paper)" << std::setw(12) << "Switches/s" << std::setw(10)
     << "(paper)" << "\n";
  PrintRule(os, 70);
  for (const world::ScenarioResult& r : results) {
    const PaperRow& paper = PaperReference(r.scenario);
    os << std::left << std::setw(26) << r.name << std::right << std::fixed
       << std::setprecision(1) << std::setw(10) << r.summary.forks_per_sec << std::setw(12)
       << paper.forks_per_sec << std::setw(12) << std::setprecision(0)
       << r.summary.switches_per_sec << std::setw(10) << paper.switches_per_sec << "\n";
  }
  os << "\n";
}

void PrintTable2(std::ostream& os, const std::vector<world::ScenarioResult>& results) {
  os << "Table 2: Wait-CV and monitor entry rates (measured, with paper values in parens)\n";
  os << std::left << std::setw(26) << "Benchmark" << std::right << std::setw(16) << "Waits/s"
     << std::setw(16) << "%timeouts" << std::setw(18) << "ML-enters/s" << std::setw(14)
     << "contention%" << "\n";
  PrintRule(os, 90);
  for (const world::ScenarioResult& r : results) {
    const PaperRow& paper = PaperReference(r.scenario);
    auto cell = [&os](double measured, double reference, int precision) {
      std::ostringstream tmp;
      tmp << std::fixed << std::setprecision(precision) << measured << " (" << reference << ")";
      os << std::setw(16) << tmp.str();
    };
    os << std::left << std::setw(26) << r.name << std::right;
    cell(r.summary.waits_per_sec, paper.waits_per_sec, 0);
    cell(r.summary.timeout_fraction * 100, paper.timeout_percent, 0);
    std::ostringstream ml;
    ml << std::fixed << std::setprecision(0) << r.summary.ml_enters_per_sec << " ("
       << paper.ml_enters_per_sec << ")";
    os << std::setw(18) << ml.str();
    os << std::setw(13) << std::fixed << std::setprecision(3)
       << r.summary.contention_fraction * 100 << "%\n";
  }
  os << "(Paper, Section 3: Cedar contention 0.01%-0.1%; GVX up to 0.4% when scrolling.)\n\n";
}

void PrintTable3(std::ostream& os, const std::vector<world::ScenarioResult>& results) {
  os << "Table 3: Number of different CVs and monitor locks used (paper -> measured)\n";
  os << std::left << std::setw(26) << "Benchmark" << std::right << std::setw(8) << "#CVs"
     << std::setw(10) << "(paper)" << std::setw(8) << "#MLs" << std::setw(10) << "(paper)"
     << "\n";
  PrintRule(os, 62);
  for (const world::ScenarioResult& r : results) {
    const PaperRow& paper = PaperReference(r.scenario);
    os << std::left << std::setw(26) << r.name << std::right << std::setw(8)
       << r.summary.distinct_cvs << std::setw(10) << paper.distinct_cvs << std::setw(8)
       << r.summary.distinct_mls << std::setw(10) << paper.distinct_mls << "\n";
  }
  os << "\n";
}

void PrintTable4(std::ostream& os, const std::vector<world::ScenarioResult>& results) {
  // Our census is identical across Cedar scenarios (it is a static property of the world), so
  // take it from the first Cedar and first GVX result.
  const trace::Census* cedar = nullptr;
  const trace::Census* gvx = nullptr;
  for (const world::ScenarioResult& r : results) {
    if (world::IsGvx(r.scenario)) {
      if (gvx == nullptr) {
        gvx = &r.census;
      }
    } else if (cedar == nullptr) {
      cedar = &r.census;
    }
  }
  os << "Table 4: Static counts of paradigm uses\n";
  os << "(ours = thread-creation sites in our reconstructed worlds; paper = sites in 2.5 MLoC "
        "of Cedar/GVX)\n";
  os << std::left << std::setw(24) << "Paradigm" << std::right << std::setw(12) << "Cedar"
     << std::setw(10) << "ours%" << std::setw(10) << "paper%" << std::setw(12) << "GVX"
     << std::setw(10) << "ours%" << std::setw(10) << "paper%" << "\n";
  PrintRule(os, 90);
  int paper_rows = 0;
  const PaperCensusRow* paper = PaperCensus(&paper_rows);
  double paper_cedar_total = 0;
  double paper_gvx_total = 0;
  for (int i = 0; i < paper_rows; ++i) {
    paper_cedar_total += paper[i].cedar_count;
    paper_gvx_total += paper[i].gvx_count;
  }
  for (int i = 0; i < paper_rows; ++i) {
    trace::Paradigm p = paper[i].paradigm;
    int64_t ours_cedar = cedar != nullptr ? cedar->count(p) : 0;
    int64_t ours_gvx = gvx != nullptr ? gvx->count(p) : 0;
    os << std::left << std::setw(24) << trace::ParadigmName(p) << std::right << std::setw(12)
       << ours_cedar << std::setw(9) << std::fixed << std::setprecision(0)
       << (cedar != nullptr ? cedar->fraction(p) * 100 : 0) << "%" << std::setw(9)
       << paper[i].cedar_count / paper_cedar_total * 100 << "%" << std::setw(12) << ours_gvx
       << std::setw(9) << (gvx != nullptr ? gvx->fraction(p) * 100 : 0) << "%" << std::setw(9)
       << paper[i].gvx_count / paper_gvx_total * 100 << "%\n";
  }
  os << std::left << std::setw(24) << "TOTAL" << std::right << std::setw(12)
     << (cedar != nullptr ? cedar->total() : 0) << std::setw(10) << "" << std::setw(9)
     << paper_cedar_total << " " << std::setw(12) << (gvx != nullptr ? gvx->total() : 0)
     << std::setw(10) << "" << std::setw(9) << paper_gvx_total << "\n\n";
}

void PrintDistributions(std::ostream& os, const std::vector<world::ScenarioResult>& results) {
  os << "Section 3 distributions (execution intervals, priorities, genealogy)\n";
  PrintRule(os, 90);
  for (const world::ScenarioResult& r : results) {
    const trace::Summary& s = r.summary;
    int early_peak = s.exec_intervals.PeakBucket(0, 9);
    int late_peak = s.exec_intervals.PeakBucket(20, 99);
    os << std::left << std::setw(26) << r.name << std::right << "  intervals<5ms="
       << std::fixed << std::setprecision(0) << s.FractionIntervalsUnder(5 * kMs) * 100
       << "%  time in 45-50ms runs=" << s.FractionTimeBetween(45 * kMs, 50 * kMs) * 100
       << "%  peaks at ~" << early_peak << "ms and "
       << (late_peak < 0 ? std::string("(none)") : '~' + std::to_string(late_peak) + "ms")
       << "  max-gen=" << r.genealogy.max_transient_generation
       << " eternal=" << r.genealogy.eternal << "\n";
  }
  os << "(Paper: bimodal at ~3 ms and ~45 ms; 75% of Cedar intervals in 0-5 ms, 50-70% for GVX;"
        "\n 20-50% of execution time in 45-50 ms intervals for Cedar, 30-80% for GVX;"
        "\n no forking generation ever exceeds 2.)\n\n";

  os << "Execution time by priority (fraction of busy time)\n";
  os << std::left << std::setw(26) << "Benchmark" << std::right;
  for (int pri = 1; pri <= 7; ++pri) {
    os << std::setw(8) << ("pri" + std::to_string(pri));
  }
  os << "\n";
  PrintRule(os, 90);
  for (const world::ScenarioResult& r : results) {
    os << std::left << std::setw(26) << r.name << std::right << std::fixed
       << std::setprecision(1);
    double busy = static_cast<double>(r.summary.busy_time_us);
    for (int pri = 1; pri <= 7; ++pri) {
      double fraction =
          busy > 0 ? static_cast<double>(r.summary.cpu_time_by_priority[static_cast<size_t>(
                         pri)]) / busy * 100
                   : 0;
      os << std::setw(7) << fraction << "%";
    }
    os << "\n";
  }
  os << "(Paper: one of the 7 levels is never used in each system — level 5 in Cedar, level 7"
        "\n in GVX; UI work runs at higher priority than user-initiated tasks like compiles.)\n";
}

}  // namespace analysis
