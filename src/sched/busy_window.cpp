#include "sched/busy_window.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace hem::sched {

namespace {

// Fixpoint probes: one least_fixpoint call per busy-window / completion-time
// candidate, so `candidates` counts the w(q) evaluations of a run and the
// histogram shows how many demand-function steps each needed.
obs::Counter& g_fixpoint_candidates = obs::registry().counter("sched.busy_window.candidates");
obs::Counter& g_fixpoint_steps = obs::registry().counter("sched.busy_window.fixpoint_steps");
obs::Histogram& g_fixpoint_hist =
    obs::registry().histogram("sched.busy_window.steps_per_fixpoint");

}  // namespace

Time least_fixpoint(const std::function<Time(Time)>& f, Time start, const FixpointLimits& limits,
                    const std::string& what) {
  const bool bounded_clock =
      limits.deadline != std::chrono::steady_clock::time_point::max();
  Time w = start;
  for (long it = 0; it < limits.max_iterations; ++it) {
    if ((it & 4095) == 0) {
      if (limits.cancel != nullptr && limits.cancel->cancelled())
        throw AnalysisError(what + ": cancelled (" +
                                std::string(exec::to_string(limits.cancel->reason())) +
                                ") after " + std::to_string(it) + " fixpoint steps",
                            ErrorCode::kCancelled);
      if (bounded_clock && std::chrono::steady_clock::now() >= limits.deadline)
        throw AnalysisError(what + ": wall-clock budget exhausted after " + std::to_string(it) +
                                " fixpoint steps",
                            ErrorCode::kTimeBudget);
    }
    const Time next = f(w);
    if (next < w)
      throw AnalysisError(what + ": demand function is not monotone (internal error)");
    if (next == w) {
      if (obs::counting()) {
        g_fixpoint_candidates.add(1);
        g_fixpoint_steps.add(it + 1);
        g_fixpoint_hist.record(it + 1);
      }
      return w;
    }
    if (next > limits.max_window)
      throw AnalysisError(what + ": busy window exceeds limit (" +
                              std::to_string(limits.max_window) +
                              " ticks) - resource overloaded?",
                          ErrorCode::kWindowLimit);
    w = next;
  }
  throw AnalysisError(what + ": fixpoint iteration did not converge within " +
                          std::to_string(limits.max_iterations) + " steps",
                      ErrorCode::kIterationLimit);
}

Count backlog_bound(const EventModel& activation, const std::vector<Time>& completion_times) {
  Count worst = 0;
  for (Count q = 1; q <= static_cast<Count>(completion_times.size()); ++q) {
    const Time arrival = activation.delta_min(q);
    Count completed = 0;
    for (const Time w : completion_times) {
      if (w <= arrival) ++completed;
    }
    worst = std::max(worst, q - completed);
  }
  return worst;
}

void claim_priority(std::set<int>& seen, int priority, const std::string& task,
                    const std::string& what) {
  if (!seen.insert(priority).second)
    throw std::invalid_argument(what + ": duplicate priority " + std::to_string(priority) +
                                " (task '" + task + "')");
}

void validate_priority_task_set(const std::vector<TaskParams>& tasks, const std::string& what) {
  if (tasks.empty()) throw std::invalid_argument(what + ": empty task set");
  std::set<int> prios;
  for (const auto& t : tasks) {
    if (t.name.empty()) throw std::invalid_argument(what + ": task with empty name");
    if (!t.activation)
      throw std::invalid_argument(what + ": task '" + t.name + "' has no activation model");
    claim_priority(prios, t.priority, t.name, what);
  }
}

}  // namespace hem::sched
