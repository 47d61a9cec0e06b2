#include "sched/round_robin.hpp"

#include <algorithm>

namespace hem::sched {

RoundRobinAnalysis::RoundRobinAnalysis(std::vector<RoundRobinTask> tasks, FixpointLimits limits)
    : tasks_(std::move(tasks)), limits_(limits) {
  if (tasks_.empty()) throw std::invalid_argument("RoundRobinAnalysis: empty task set");
  for (const auto& t : tasks_) {
    if (!t.params.activation)
      throw std::invalid_argument("RoundRobinAnalysis: task '" + t.params.name +
                                  "' has no activation model");
    if (t.slot <= 0)
      throw std::invalid_argument("RoundRobinAnalysis: task '" + t.params.name +
                                  "' needs a positive slot");
  }
}

ResponseResult RoundRobinAnalysis::analyze(std::size_t index) const {
  const RoundRobinTask& self = tasks_.at(index);

  const auto interference = [&](Time w, Count rounds) {
    Time sum = 0;
    for (std::size_t j = 0; j < tasks_.size(); ++j) {
      if (j == index) continue;
      const auto& other = tasks_[j];
      const Count n = other.params.activation->eta_plus(sat_add(w, 1));
      if (is_infinite_count(n))
        throw AnalysisError("RoundRobinAnalysis: unbounded burst from '" + other.params.name +
                            "'");
      const Time by_demand = sat_mul(other.params.cet.worst, n);
      const Time by_slots = sat_mul(other.slot, rounds);
      sum = sat_add(sum, std::min(by_demand, by_slots));
    }
    return sum;
  };

  // Busy period: all demand of self plus bounded interference.
  const Time c = self.params.cet.worst;
  const auto rounds_for = [&](Count q) {
    return static_cast<Count>(ceil_div(std::max<Time>(1, sat_mul(c, q)), self.slot));
  };

  const Time busy = least_fixpoint(
      [&](Time w) {
        const Count own = self.params.activation->eta_plus(w);
        if (is_infinite_count(own))
          throw AnalysisError("RoundRobinAnalysis: unbounded burst from '" + self.params.name +
                              "'");
        return sat_add(sat_mul(c, own), interference(w, rounds_for(std::max<Count>(1, own))));
      },
      c, limits_, "RoundRobinAnalysis(" + self.params.name + ") busy period");

  const Count q_max = std::max<Count>(1, self.params.activation->eta_plus(busy));

  ResponseResult res;
  res.name = self.params.name;
  res.bcrt = self.params.cet.best;
  res.busy_period = busy;
  res.activations = q_max;

  Time w_prev = 0;
  std::vector<Time> completions;
  completions.reserve(static_cast<std::size_t>(q_max));
  for (Count q = 1; q <= q_max; ++q) {
    const Count rounds = rounds_for(q);
    const Time w = least_fixpoint(
        [&](Time w_cur) { return sat_add(sat_mul(c, q), interference(w_cur, rounds)); },
        std::max(w_prev, sat_mul(c, q)), limits_,
        "RoundRobinAnalysis(" + self.params.name + ") q=" + std::to_string(q));
    w_prev = w;
    completions.push_back(w);
    res.wcrt = std::max(res.wcrt, w - self.params.activation->delta_min(q));
  }
  res.backlog = backlog_bound(*self.params.activation, completions);
  return res;
}

std::vector<ResponseResult> RoundRobinAnalysis::analyze_all() const {
  std::vector<ResponseResult> out;
  out.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) out.push_back(analyze(i));
  return out;
}

}  // namespace hem::sched
