#include "sched/edf.hpp"

#include <algorithm>

namespace hem::sched {

EdfAnalysis::EdfAnalysis(std::vector<EdfTask> tasks, FixpointLimits limits)
    : tasks_(std::move(tasks)), limits_(limits) {
  if (tasks_.empty()) throw std::invalid_argument("EdfAnalysis: empty task set");
  for (const auto& t : tasks_) {
    if (!t.params.activation)
      throw std::invalid_argument("EdfAnalysis: task '" + t.params.name +
                                  "' has no activation model");
    if (t.deadline <= 0)
      throw std::invalid_argument("EdfAnalysis: task '" + t.params.name +
                                  "' needs a positive deadline");
  }
}

Time EdfAnalysis::demand_bound(std::size_t index, Time t) const {
  const EdfTask& task = tasks_.at(index);
  if (t < task.deadline) return 0;
  // Jobs arriving within the closed window [0, t - D] have their deadline
  // inside [0, t]; eta+(x + 1) counts arrivals in a closed window of x.
  const Count n = task.params.activation->eta_plus(t - task.deadline + 1);
  if (is_infinite_count(n))
    throw AnalysisError("EdfAnalysis: unbounded burst from '" + task.params.name + "'");
  return sat_mul(task.params.cet.worst, n);
}

Time EdfAnalysis::demand_bound(Time t) const {
  Time sum = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) sum = sat_add(sum, demand_bound(i, t));
  return sum;
}

Time EdfAnalysis::busy_period() const {
  return least_fixpoint(
      [&](Time w) {
        Time sum = 0;
        for (const auto& t : tasks_) {
          const Count n = t.params.activation->eta_plus(w);
          if (is_infinite_count(n))
            throw AnalysisError("EdfAnalysis: unbounded burst from '" + t.params.name + "'");
          sum = sat_add(sum, sat_mul(t.params.cet.worst, n));
        }
        return std::max<Time>(sum, 1);
      },
      1, limits_, "EdfAnalysis busy period");
}

bool EdfAnalysis::schedulable() const {
  const Time horizon = busy_period();
  // Check dbf(t) <= t at every absolute deadline within the busy period:
  // t = delta-_i(q) + D_i for the q-th synchronous activation of task i.
  for (const auto& task : tasks_) {
    for (Count q = 1;; ++q) {
      const Time arrival = task.params.activation->delta_min(q);
      if (arrival >= horizon) break;
      const Time t = arrival + task.deadline;
      if (demand_bound(t) > t) return false;
    }
  }
  return true;
}

ResponseResult EdfAnalysis::analyze(std::size_t index) const {
  const EdfTask& self = tasks_.at(index);
  const Time horizon = busy_period();
  const Count q_max = std::max<Count>(1, self.params.activation->eta_plus(horizon));

  ResponseResult res;
  res.name = self.params.name;
  res.bcrt = self.params.cet.best;
  res.busy_period = horizon;
  res.activations = q_max;

  for (Count q = 1; q <= q_max; ++q) {
    // Spuri-style offset scan: the deadline busy period may start x ticks
    // BEFORE the first job of the analysed task arrives, admitting more
    // same-or-earlier-deadline interference.  The response as a function of
    // x is piecewise and peaks exactly where our job's absolute deadline
    // aligns with another task's job deadline, so scanning those alignment
    // candidates (plus x = 0) is exhaustive.
    std::vector<Time> candidates{0};
    for (std::size_t j = 0; j < tasks_.size(); ++j) {
      if (j == index) continue;
      const auto& other = tasks_[j];
      const Count kj = other.params.activation->eta_plus(horizon);
      for (Count k = 1; k <= kj; ++k) {
        const Time x = other.params.activation->delta_min(k) + other.deadline -
                       self.deadline - self.params.activation->delta_min(q);
        if (x > 0 && x <= horizon) candidates.push_back(x);
      }
    }

    for (const Time x : candidates) {
      const Time arrival = x + self.params.activation->delta_min(q);
      const Time deadline_abs = arrival + self.deadline;
      // Interference: jobs of other tasks arriving in the busy window with
      // absolute deadline <= ours.
      const auto interference = [&](Time w) {
        Time sum = 0;
        for (std::size_t j = 0; j < tasks_.size(); ++j) {
          if (j == index) continue;
          const auto& other = tasks_[j];
          const Time dl_window = deadline_abs - other.deadline + 1;
          if (dl_window <= 0) continue;
          const Count by_deadline = other.params.activation->eta_plus(dl_window);
          const Count by_arrival = other.params.activation->eta_plus(sat_add(w, 1));
          if (is_infinite_count(by_deadline) || is_infinite_count(by_arrival))
            throw AnalysisError("EdfAnalysis: unbounded burst from '" + other.params.name +
                                "'");
          sum =
              sat_add(sum, sat_mul(other.params.cet.worst, std::min(by_deadline, by_arrival)));
        }
        return sum;
      };
      const Time w = least_fixpoint(
          [&](Time w_cur) {
            return sat_add(sat_mul(self.params.cet.worst, q), interference(w_cur));
          },
          sat_mul(self.params.cet.worst, q), limits_,
          "EdfAnalysis(" + self.params.name + ") q=" + std::to_string(q));
      if (w <= arrival) continue;  // busy period ends before our job arrives: infeasible x
      res.wcrt = std::max(res.wcrt, w - arrival);
    }
  }
  // A job pending at t arrived within (t - R+, t]: at most eta+(R+) jobs.
  res.backlog = self.params.activation->eta_plus(res.wcrt);
  return res;
}

std::vector<ResponseResult> EdfAnalysis::analyze_all() const {
  std::vector<ResponseResult> out;
  out.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) out.push_back(analyze(i));
  return out;
}

}  // namespace hem::sched
