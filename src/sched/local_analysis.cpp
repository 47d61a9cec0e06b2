#include "sched/local_analysis.hpp"

#include <algorithm>

namespace hem::sched {

const char* analysis_name(Policy policy) {
  switch (policy) {
    case Policy::kSppPreemptive: return "SppAnalysis";
    case Policy::kSpnpCan: return "CanBusAnalysis";
    case Policy::kRoundRobin: return "RoundRobinAnalysis";
    case Policy::kTdma: return "TdmaAnalysis";
    case Policy::kFlexRayStatic: return "FlexRayStaticAnalysis";
    case Policy::kEdf: return "EdfAnalysis";
  }
  return "LocalAnalysis";
}

namespace {

[[noreturn]] void throw_unbounded_burst(const std::string& analysis, const std::string& task) {
  throw AnalysisError(analysis + ": unbounded burst from '" + task + "'");
}

}  // namespace

/// The task under analysis and the tasks that can delay it.
struct LocalAnalysis::Window {
  std::size_t index;
  const TaskParams& self;
  std::string who;                        ///< "<analysis>(<task>)", the fixpoint label
  std::vector<const TaskParams*> others;  ///< hp(i) (SPP, CAN); every other task (RR, EDF)
  Time block = 0;                         ///< CAN: lower-priority blocking
};

LocalAnalysis::LocalAnalysis(Policy policy, std::vector<TaskParams> tasks,
                             FixpointLimits limits, Time cycle, Time slot_length)
    : policy_(policy),
      name_(analysis_name(policy)),
      tasks_(std::move(tasks)),
      limits_(limits),
      cycle_(cycle),
      slot_length_(slot_length) {
  validate();
}

LocalAnalysis::LocalAnalysis(SupplyPtr supply, std::vector<TaskParams> tasks,
                             FixpointLimits limits)
    : policy_(Policy::kSppPreemptive),
      name_("ServerSppAnalysis"),
      tasks_(std::move(tasks)),
      limits_(limits),
      supply_(std::move(supply)) {
  if (!supply_) throw std::invalid_argument("ServerSppAnalysis: null supply model");
  validate();
}

void LocalAnalysis::validate() const {
  const bool flexray = policy_ == Policy::kFlexRayStatic;
  if (tasks_.empty())
    throw std::invalid_argument(name_ + (flexray ? ": no frames" : ": empty task set"));
  if (policy_ == Policy::kSppPreemptive || policy_ == Policy::kSpnpCan) {
    validate_priority_task_set(tasks_, name_);
    return;
  }
  if (flexray && (cycle_ <= 0 || slot_length_ <= 0 || slot_length_ > cycle_))
    throw std::invalid_argument(name_ + ": need 0 < slot_length <= cycle");
  Time slots = 0;
  for (const auto& t : tasks_) {
    const auto fail = [&](const char* problem) {
      throw std::invalid_argument(name_ + (flexray ? ": frame '" : ": task '") + t.name + "' " +
                                  problem);
    };
    if (!t.activation) fail("has no activation model");
    if ((policy_ == Policy::kRoundRobin || policy_ == Policy::kTdma) && t.slot <= 0)
      fail("needs a positive slot");
    if (flexray && t.cet.worst > slot_length_) fail("does not fit its slot");
    if (policy_ == Policy::kEdf && t.deadline <= 0) fail("needs a positive deadline");
    slots = sat_add(slots, t.slot);
  }
  if (policy_ == Policy::kTdma && cycle_ < slots)
    throw std::invalid_argument(name_ + ": slots exceed the cycle length");
}

ResponseResult LocalAnalysis::analyze(std::size_t index) const {
  const Window win = window(index);
  const TaskParams& self = win.self;
  const Time busy = busy_period(win);
  const Count q_max = std::max<Count>(1, self.activation->eta_plus(busy));

  ResponseResult res;
  res.name = self.name;
  res.busy_period = busy;
  res.activations = q_max;
  res.bcrt = self.cet.best;
  if (policy_ == Policy::kTdma) {
    // Best case: the slot is free at once, but demand beyond one slot still
    // waits out the gaps between slots.
    const Time kb = self.cet.best > 0 ? (self.cet.best - 1) / self.slot : 0;
    res.bcrt += kb * (cycle_ - self.slot);
  }

  Time prev = 0;  // last completion fixpoint: a lower start for the next one
  std::vector<Time> completions;
  completions.reserve(static_cast<std::size_t>(q_max));
  for (Count q = 1; q <= q_max; ++q) {
    const Time w = completion(win, q, busy, prev);
    completions.push_back(w);
    res.wcrt = std::max(res.wcrt, w - self.activation->delta_min(q));
  }
  // EDF's w(q) are offset-scan maxima, not completion instants; a job
  // pending at t arrived within (t - R+, t], so at most eta+(R+) are.
  res.backlog = policy_ == Policy::kEdf ? self.activation->eta_plus(res.wcrt)
                                        : backlog_bound(*self.activation, completions);
  return res;
}

std::vector<ResponseResult> LocalAnalysis::analyze_all() const {
  std::vector<ResponseResult> out;
  out.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) out.push_back(analyze(i));
  return out;
}

LocalAnalysis::Window LocalAnalysis::window(std::size_t index) const {
  const TaskParams& self = tasks_.at(index);
  Window win{index, self, name_ + "(" + self.name + ")", {}, 0};
  const bool by_priority = policy_ == Policy::kSppPreemptive || policy_ == Policy::kSpnpCan;
  const bool shared = policy_ == Policy::kRoundRobin || policy_ == Policy::kEdf;
  for (const auto& t : tasks_)
    if (by_priority ? t.priority < self.priority : shared && &t != &self)
      win.others.push_back(&t);
  if (policy_ == Policy::kSpnpCan) win.block = blocking(index);
  return win;
}

Time LocalAnalysis::busy_period(const Window& win) const {
  // EDF's busy period is the synchronous one of the whole set, so its label
  // names no task.
  return least_fixpoint([&](Time w) { return busy_step(win, w); }, busy_start(win), limits_,
                        (policy_ == Policy::kEdf ? name_ : win.who) + " busy period");
}

Time LocalAnalysis::busy_start(const Window& win) const {
  const Time c = win.self.cet.worst;
  switch (policy_) {
    case Policy::kSppPreemptive: return serve(c);
    case Policy::kSpnpCan: return sat_add(win.block, c);
    case Policy::kRoundRobin: return c;
    case Policy::kTdma: return service_inverse(win.index, c);
    case Policy::kFlexRayStatic: return sat_add(cycle_, c);
    case Policy::kEdf: return 1;
  }
  return c;
}

Time LocalAnalysis::busy_step(const Window& win, Time w) const {
  const TaskParams& self = win.self;
  const Time c = self.cet.worst;
  if (policy_ == Policy::kEdf) {
    Time sum = 0;
    for (const auto& t : tasks_) sum = sat_add(sum, sat_mul(t.cet.worst, eta(t, w)));
    return std::max<Time>(sum, 1);
  }
  const Count own = eta(self, w);
  const Count at_least_one = std::max<Count>(1, own);
  switch (policy_) {
    case Policy::kSppPreemptive:
      return serve(sat_add(sat_mul(c, supply_ ? at_least_one : own), interference(win, w)));
    case Policy::kSpnpCan:
      return sat_add(win.block, sat_add(sat_mul(c, own), interference(win, w)));
    case Policy::kRoundRobin:
      return sat_add(sat_mul(c, own), interference(win, w, at_least_one));
    case Policy::kTdma:
      return service_inverse(win.index, sat_mul(c, at_least_one));
    case Policy::kFlexRayStatic:
      // One slot per cycle serves the backlog.
      return sat_add(sat_mul(cycle_, at_least_one), c);
    case Policy::kEdf: break;
  }
  return w;
}

Time LocalAnalysis::completion(const Window& win, Count q, Time busy, Time& prev) const {
  const TaskParams& self = win.self;
  const Time c = self.cet.worst;
  const Time cq = sat_mul(c, q);
  const auto label = [&] { return win.who + " q=" + std::to_string(q); };
  switch (policy_) {
    case Policy::kSppPreemptive:
      prev = least_fixpoint([&](Time w) { return serve(sat_add(cq, interference(win, w))); },
                            std::max(prev, serve(cq)), limits_, label());
      return prev;
    case Policy::kSpnpCan: {
      // The fixpoint is the queueing delay (start of transmission) of the
      // q-th instance; it completes C+ later.
      const Time base = sat_add(win.block, sat_mul(c, q - 1));
      prev = least_fixpoint([&](Time w) { return sat_add(base, interference(win, w)); },
                            std::max(prev, base), limits_, label());
      return prev + c;
    }
    case Policy::kRoundRobin:
      prev = least_fixpoint([&](Time w) { return sat_add(cq, interference(win, w, q)); },
                            std::max(prev, cq), limits_, label());
      return prev;
    case Policy::kTdma: return service_inverse(win.index, cq);
    case Policy::kFlexRayStatic:
      // The trigger just missed the slot, and q - 1 earlier instances each
      // took one slot.
      return sat_add(sat_mul(cycle_, q), c);
    case Policy::kEdf: break;
  }
  // EDF, Spuri's offset scan: the deadline busy period may start x ticks
  // BEFORE the first job of the analysed task arrives, admitting more
  // same-or-earlier-deadline interference.  The response as a function of x
  // is piecewise and peaks exactly where our job's absolute deadline aligns
  // with another task's job deadline, so scanning those alignment candidates
  // (plus x = 0) is exhaustive.  Returns max_x (w_x - x) over the feasible
  // x, so that w(q) - delta-(q) is the q-th job's response.
  const Time first = self.activation->delta_min(q);
  std::vector<Time> offsets{0};
  for (const TaskParams* other : win.others) {
    const Count kj = other->activation->eta_plus(busy);
    for (Count k = 1; k <= kj; ++k) {
      const Time x =
          other->activation->delta_min(k) + other->deadline - self.deadline - first;
      if (x > 0 && x <= busy) offsets.push_back(x);
    }
  }
  const std::string what = label();
  Time latest = first;  // no feasible offset: response 0
  for (const Time x : offsets) {
    const Time arrival = x + first;
    const Time deadline_abs = arrival + self.deadline;
    const Time w = least_fixpoint(
        [&](Time w_cur) { return sat_add(cq, interference(win, w_cur, 0, deadline_abs)); }, cq,
        limits_, what);
    if (w > arrival) latest = std::max(latest, w - x);  // else the busy period ended first
  }
  return latest;
}

Time LocalAnalysis::interference(const Window& win, Time w, Count q, Time deadline_abs) const {
  // Arrivals in the CLOSED window [0, w] (eta+ is strict, hence the +1): a
  // job released at the very completion instant still delays it (under CAN,
  // the integer-tick form of the classic +tau_bit).
  const Time closed = sat_add(w, 1);
  Time sum = 0;
  if (policy_ == Policy::kRoundRobin) {
    // Never more than the other task's own demand or its slot allowance
    // over the rounds self needs for q activations.
    const Time rounds =
        ceil_div(std::max<Time>(1, sat_mul(win.self.cet.worst, q)), win.self.slot);
    for (const TaskParams* j : win.others)
      sum = sat_add(sum, std::min(sat_mul(j->cet.worst, eta(*j, closed)),
                                  sat_mul(j->slot, rounds)));
  } else if (policy_ == Policy::kEdf) {
    // Only jobs whose absolute deadline is at most ours.
    for (const TaskParams* j : win.others) {
      const Time dl_window = deadline_abs - j->deadline + 1;
      if (dl_window <= 0) continue;
      const Count by_deadline = eta(*j, dl_window);
      sum = sat_add(sum, sat_mul(j->cet.worst, std::min(by_deadline, eta(*j, closed))));
    }
  } else {
    for (const TaskParams* j : win.others)
      sum = sat_add(sum, sat_mul(j->cet.worst, eta(*j, closed)));
  }
  return sum;
}

Count LocalAnalysis::eta(const TaskParams& task, Time w) const {
  const Count n = task.activation->eta_plus(w);
  if (is_infinite_count(n)) [[unlikely]]
    throw_unbounded_burst(name_, task.name);
  return n;
}

Time LocalAnalysis::serve(Time demand) const {
  return supply_ ? supply_->sbf_inverse(demand) : demand;
}

Time LocalAnalysis::blocking(std::size_t index) const {
  const TaskParams& self = tasks_.at(index);
  Time b = 0;
  for (const auto& f : tasks_)
    if (f.priority > self.priority) b = std::max(b, f.cet.worst);
  return b;
}

Time LocalAnalysis::service(std::size_t index, Time dt) const {
  // Worst-case alignment: the window opens exactly when the slot closes, so
  // the supply pattern seen is (gap, slot, gap, slot, ...).
  if (dt <= 0) return 0;
  const Time theta = tasks_.at(index).slot;
  const Time gap = cycle_ - theta;
  const Time k = dt / cycle_;
  const Time rem = dt - k * cycle_;
  return k * theta + std::min(theta, std::max<Time>(0, rem - gap));
}

Time LocalAnalysis::service_inverse(std::size_t index, Time demand) const {
  if (demand <= 0) return 0;
  const Time theta = tasks_.at(index).slot;
  const Time gap = cycle_ - theta;
  // demand = k full slots + rem with rem in (0, theta]: k whole cycles plus
  // the initial gap plus rem ticks into the (k+1)-th slot.
  const Time k = (demand - 1) / theta;
  const Time rem = demand - k * theta;
  return k * cycle_ + gap + rem;
}

Time LocalAnalysis::demand_bound(std::size_t index, Time t) const {
  const TaskParams& task = tasks_.at(index);
  if (t < task.deadline) return 0;
  // Jobs arriving within the closed window [0, t - D] have their deadline
  // inside [0, t]; eta+(x + 1) counts arrivals in a closed window of x.
  return sat_mul(task.cet.worst, eta(task, t - task.deadline + 1));
}

Time LocalAnalysis::demand_bound(Time t) const {
  Time sum = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) sum = sat_add(sum, demand_bound(i, t));
  return sum;
}

bool LocalAnalysis::schedulable() const {
  const Time horizon = busy_period(window(0));
  // Check dbf(t) <= t at every absolute deadline within the busy period:
  // t = delta-_i(q) + D_i for the q-th synchronous activation of task i.
  for (const auto& task : tasks_) {
    for (Count q = 1;; ++q) {
      const Time arrival = task.activation->delta_min(q);
      if (arrival >= horizon) break;
      const Time t = arrival + task.deadline;
      if (demand_bound(t) > t) return false;
    }
  }
  return true;
}

}  // namespace hem::sched
