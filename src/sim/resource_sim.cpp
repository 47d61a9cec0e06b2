#include "sim/resource_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hem::sim {

using cpa::Policy;

ResourceSim::ResourceSim(EventCalendar& cal, cpa::ResourceSpec resource,
                         std::vector<cpa::TaskSpec> tasks, bool worst_case, std::mt19937_64& rng)
    : cal_(cal),
      resource_(std::move(resource)),
      tasks_(std::move(tasks)),
      worst_case_(worst_case),
      rng_(rng) {
  const std::string where = "ResourceSim '" + resource_.name + "': ";
  if (tasks_.empty()) throw std::invalid_argument(where + "no tasks");
  const auto fail = [&](const cpa::TaskSpec& t, const std::string& what) {
    throw std::invalid_argument(where + "task '" + t.name + "' " + what);
  };
  const Policy policy = resource_.policy;
  if ((policy == Policy::kTdma || policy == Policy::kFlexRayStatic) && resource_.tdma_cycle <= 0)
    throw std::invalid_argument(where + "needs a positive cycle");
  if (policy == Policy::kFlexRayStatic && resource_.slot_length <= 0)
    throw std::invalid_argument(where + "needs a positive slot length");

  Time offset = 0;
  for (const cpa::TaskSpec& t : tasks_) {
    if (t.cet.best < 0 || t.cet.worst < t.cet.best) fail(t, "has an invalid execution time");
    switch (policy) {
      case Policy::kSppPreemptive:
      case Policy::kSpnpCan:
        break;  // equal priorities are legal: ties go to the lower index
      case Policy::kRoundRobin:
        if (t.slot <= 0) fail(t, "needs a positive slot");
        break;
      case Policy::kTdma:
        if (t.slot <= 0) fail(t, "needs a positive slot");
        slot_offset_.push_back(offset);
        offset = sat_add(offset, t.slot);
        break;
      case Policy::kFlexRayStatic:
        if (t.cet.worst > resource_.slot_length) fail(t, "does not fit its slot");
        slot_offset_.push_back(offset);
        offset = sat_add(offset, resource_.slot_length);
        break;
      case Policy::kEdf:
        if (t.deadline <= 0) fail(t, "needs a positive deadline");
        break;
    }
  }
  if (offset > resource_.tdma_cycle)
    throw std::invalid_argument(where + "slots exceed the cycle");

  queues_.resize(tasks_.size());
  stats_.resize(tasks_.size());
}

void ResourceSim::activate(std::size_t idx) {
  const cpa::TaskSpec& task = tasks_.at(idx);
  Time demand = task.cet.worst;
  if (!worst_case_ && task.cet.worst > task.cet.best) {
    std::uniform_int_distribution<Time> dist(task.cet.best, task.cet.worst);
    demand = dist(rng_);
  }
  const Time now = cal_.now();
  queues_[idx].push_back(Job{now, demand, now + task.deadline});
  stats_[idx].activations.push_back(now);
  dispatch();
}

bool ResourceSim::preemptive() const noexcept {
  const Policy p = resource_.policy;
  return p == Policy::kSppPreemptive || p == Policy::kEdf || p == Policy::kTdma;
}

Time ResourceSim::slot_start(std::size_t idx, bool earlier) const {
  const Time cycle = resource_.tdma_cycle;
  const Time since = cal_.now() - slot_offset_[idx];
  // Floor division: `since` is negative before the first slot.
  const Time k = since >= 0 ? since / cycle : -((-since + cycle - 1) / cycle);
  const Time latest = slot_offset_[idx] + k * cycle;
  return earlier ? latest : latest + cycle;
}

ResourceSim::Pick ResourceSim::pick() const {
  const std::size_t n = tasks_.size();
  Pick best;
  const auto better = [&](std::size_t i, std::size_t b) {
    return resource_.policy == Policy::kEdf
               ? queues_[i].front().abs_deadline < queues_[b].front().abs_deadline
               : tasks_[i].priority < tasks_[b].priority;
  };
  switch (resource_.policy) {
    case Policy::kSppPreemptive:
    case Policy::kSpnpCan:
    case Policy::kEdf:
      for (std::size_t i = 0; i < n; ++i)
        if (!queues_[i].empty() && (best.task == kIdle || better(i, best.task))) best.task = i;
      if (best.task != kIdle) best.budget = queues_[best.task].front().remaining;
      return best;
    case Policy::kRoundRobin:
      for (std::size_t probe = 0; probe < n; ++probe) {
        const std::size_t i = (rotor_ + probe) % n;
        if (queues_[i].empty()) continue;
        best.task = i;
        best.budget = std::min(queues_[i].front().remaining, tasks_[i].slot);
        return best;
      }
      return best;
    case Policy::kTdma:
      for (std::size_t i = 0; i < n; ++i) {
        if (queues_[i].empty()) continue;
        const Time remaining = queues_[i].front().remaining;
        const Time slot_end = slot_start(i, true) + tasks_[i].slot;
        if (remaining == 0 || slot_end > cal_.now()) {  // nothing left to serve, or owner
          best.task = i;
          best.budget = remaining == 0 ? 0 : std::min(remaining, slot_end - cal_.now());
          return best;
        }
        best.wake = std::min(best.wake, slot_start(i, false));
      }
      return best;
    case Policy::kFlexRayStatic:
      for (std::size_t i = 0; i < n; ++i) {
        if (queues_[i].empty()) continue;
        if (slot_start(i, true) == cal_.now()) {
          best.task = i;
          best.budget = queues_[i].front().remaining;
          return best;
        }
        best.wake = std::min(best.wake, slot_start(i, false));
      }
      return best;
  }
  return best;
}

void ResourceSim::dispatch() {
  if (in_hook_) return;
  if (running_ != kIdle) {
    if (!preemptive()) return;
    // Account the progress so far: the pick sees what is left.
    queues_[running_].front().remaining -= cal_.now() - resumed_at_;
    resumed_at_ = cal_.now();
  }
  const Pick next = pick();
  if (running_ != kIdle && next.task == running_) return;  // its end event stays valid
  running_ = next.task;
  const std::uint64_t epoch = ++epoch_;  // invalidates the pending event
  if (running_ == kIdle) {
    if (!is_infinite(next.wake))
      cal_.at(next.wake, [this, epoch] {
        if (epoch == epoch_) dispatch();
      });
    return;
  }
  if (resource_.policy == Policy::kRoundRobin) rotor_ = (running_ + 1) % tasks_.size();
  resumed_at_ = cal_.now();
  cal_.after(next.budget, [this, epoch] {
    if (epoch == epoch_) end_of_run();
  });
  Job& job = queues_[running_].front();
  if (!job.started) {
    job.started = true;
    if (on_start) on_start(running_);
  }
}

void ResourceSim::end_of_run() {
  const std::size_t t = running_;
  running_ = kIdle;
  Job& job = queues_[t].front();
  job.remaining -= cal_.now() - resumed_at_;
  if (job.remaining == 0) {
    const Time response = cal_.now() - job.arrival;
    TaskStats& s = stats_[t];
    s.responses.push_back(response);
    s.completions.push_back(cal_.now());
    s.wcrt = std::max(s.wcrt, response);
    if (tasks_[t].deadline > 0 && response > tasks_[t].deadline) ++misses_;
    queues_[t].pop_front();
    // Activations the hook releases here are dispatched together below, so
    // a non-preemptive resource arbitrates among all of them.
    in_hook_ = true;
    if (on_complete) on_complete(t);
    in_hook_ = false;
  }
  dispatch();
}

}  // namespace hem::sim
