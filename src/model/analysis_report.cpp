#include "model/analysis_report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace hem::cpa {

namespace {

/// Render times for the report table: the infinity sentinel prints as "inf".
std::string fmt_time(Time t) { return is_infinite(t) ? "inf" : std::to_string(t); }
std::string fmt_count(Count n) { return is_infinite_count(n) ? "inf" : std::to_string(n); }

}  // namespace

const char* to_string(TaskStatus s) noexcept {
  switch (s) {
    case TaskStatus::kConverged: return "converged";
    case TaskStatus::kOverloaded: return "overloaded";
    case TaskStatus::kDiverged: return "diverged";
    case TaskStatus::kBudgetExhausted: return "budget-exhausted";
    case TaskStatus::kDegradedUpstream: return "degraded-upstream";
  }
  return "?";
}

const TaskResult& AnalysisReport::task(std::string_view name) const {
  for (const auto& t : tasks)
    if (t.name == name) return t;
  throw std::invalid_argument("AnalysisReport: no task named '" + std::string(name) + "'");
}

bool AnalysisReport::degraded() const {
  return std::any_of(tasks.begin(), tasks.end(),
                     [](const TaskResult& t) { return t.degraded(); });
}

std::string AnalysisReport::format() const {
  std::ostringstream os;
  os << std::setw(12) << "task" << std::setw(12) << "resource" << std::setw(10) << "R-"
     << std::setw(10) << "R+" << std::setw(8) << "q_max" << std::setw(12) << "busy" << std::setw(8) << "queue" << std::setw(8)
     << "util%" << std::setw(18) << "status" << '\n';
  for (const auto& t : tasks) {
    os << std::setw(12) << t.name << std::setw(12) << t.resource << std::setw(10)
       << fmt_time(t.bcrt) << std::setw(10) << fmt_time(t.wcrt) << std::setw(8)
       << fmt_count(t.activations_in_busy_period) << std::setw(12) << fmt_time(t.busy_period)
       << std::setw(8) << fmt_count(t.backlog) << std::setw(8) << std::fixed
       << std::setprecision(1)
       << (t.utilization * 100.0) << std::setw(18) << to_string(t.status) << '\n';
  }
  os << "iterations: " << iterations << (converged ? " (converged)" : " (NOT converged)");
  if (degraded()) os << " [DEGRADED: conservative fallback bounds in effect]";
  os << '\n';
  if (!diagnostics.empty()) os << "diagnostics:\n" << diagnostics.format();
  return os.str();
}

}  // namespace hem::cpa
