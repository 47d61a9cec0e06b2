#include "sched/tdma.hpp"

#include <algorithm>
#include <numeric>

namespace hem::sched {

TdmaAnalysis::TdmaAnalysis(std::vector<TdmaTask> tasks, Time cycle, FixpointLimits limits)
    : tasks_(std::move(tasks)), cycle_(cycle), limits_(limits) {
  if (tasks_.empty()) throw std::invalid_argument("TdmaAnalysis: empty task set");
  Time total = 0;
  for (const auto& t : tasks_) {
    if (!t.params.activation)
      throw std::invalid_argument("TdmaAnalysis: task '" + t.params.name +
                                  "' has no activation model");
    if (t.slot <= 0)
      throw std::invalid_argument("TdmaAnalysis: task '" + t.params.name +
                                  "' needs a positive slot");
    total = sat_add(total, t.slot);
  }
  if (cycle_ < total)
    throw std::invalid_argument("TdmaAnalysis: slots exceed the cycle length");
}

Time TdmaAnalysis::service(std::size_t index, Time dt) const {
  // Worst-case alignment: the window opens exactly when the slot closes, so
  // the supply pattern seen is (gap, slot, gap, slot, ...).
  if (dt <= 0) return 0;
  const Time theta = tasks_.at(index).slot;
  const Time gap = cycle_ - theta;
  const Time k = dt / cycle_;
  const Time rem = dt - k * cycle_;
  return k * theta + std::min(theta, std::max<Time>(0, rem - gap));
}

Time TdmaAnalysis::service_inverse(std::size_t index, Time demand) const {
  if (demand <= 0) return 0;
  const Time theta = tasks_.at(index).slot;
  const Time gap = cycle_ - theta;
  // demand = k full slots + rem with rem in (0, theta]: k whole cycles plus
  // the initial gap plus rem ticks into the (k+1)-th slot.
  const Time k = (demand - 1) / theta;
  const Time rem = demand - k * theta;
  return k * cycle_ + gap + rem;
}

ResponseResult TdmaAnalysis::analyze(std::size_t index) const {
  const TdmaTask& self = tasks_.at(index);
  const Time c = self.params.cet.worst;

  // Busy period: smallest t with service(t) >= demand(t).
  const Time busy = least_fixpoint(
      [&](Time w) {
        const Count own = self.params.activation->eta_plus(w);
        if (is_infinite_count(own))
          throw AnalysisError("TdmaAnalysis: unbounded burst from '" + self.params.name + "'");
        return service_inverse(index, sat_mul(c, std::max<Count>(1, own)));
      },
      service_inverse(index, c), limits_, "TdmaAnalysis(" + self.params.name + ") busy period");

  const Count q_max = std::max<Count>(1, self.params.activation->eta_plus(busy));

  ResponseResult res;
  res.name = self.params.name;
  res.busy_period = busy;
  res.activations = q_max;
  // Best case: the slot is immediately available and the demand fits into
  // consecutive slots with no waiting beyond mandatory gaps.
  const Time cb = self.params.cet.best;
  const Time kb = cb > 0 ? (cb - 1) / self.slot : 0;
  res.bcrt = cb + kb * (cycle_ - self.slot);

  std::vector<Time> completions;
  completions.reserve(static_cast<std::size_t>(q_max));
  for (Count q = 1; q <= q_max; ++q) {
    const Time completion = service_inverse(index, sat_mul(c, q));
    completions.push_back(completion);
    res.wcrt = std::max(res.wcrt, completion - self.params.activation->delta_min(q));
  }
  res.backlog = backlog_bound(*self.params.activation, completions);
  return res;
}

std::vector<ResponseResult> TdmaAnalysis::analyze_all() const {
  std::vector<ResponseResult> out;
  out.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) out.push_back(analyze(i));
  return out;
}

}  // namespace hem::sched
