#include "sched/priority_assignment.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sched/local_analysis.hpp"

namespace hem::sched {

namespace {

/// Response time of `candidate` when it sits at the lowest priority among
/// `unassigned`, with `assigned_below` strictly below it (relevant for CAN
/// blocking only).
Time response_at_level(const std::vector<OpaTask>& tasks, std::size_t candidate,
                       const std::vector<std::size_t>& unassigned,
                       const std::vector<std::size_t>& assigned_below, Policy policy,
                       const FixpointLimits& limits) {
  std::vector<TaskParams> params;
  std::size_t candidate_pos = 0;
  int prio = 1;
  for (const std::size_t i : unassigned) {
    TaskParams p = tasks[i].params;
    if (i == candidate) {
      p.priority = 1000;  // lowest among the unassigned
      candidate_pos = params.size();
    } else {
      p.priority = prio++;
    }
    params.push_back(std::move(p));
  }
  // Already-assigned tasks sit strictly below; they only matter through
  // non-preemptive blocking.
  int below = 2000;
  for (const std::size_t i : assigned_below) {
    TaskParams p = tasks[i].params;
    p.priority = below++;
    params.push_back(std::move(p));
  }

  return LocalAnalysis(policy, std::move(params), limits).analyze(candidate_pos).wcrt;
}

}  // namespace

std::optional<std::vector<int>> assign_priorities_opa(const std::vector<OpaTask>& tasks,
                                                      Policy policy,
                                                      FixpointLimits limits) {
  if (tasks.empty()) throw std::invalid_argument("assign_priorities_opa: empty task set");
  if (policy != Policy::kSppPreemptive && policy != Policy::kSpnpCan)
    throw std::invalid_argument("assign_priorities_opa: needs an SPP or CAN policy");
  for (const auto& t : tasks) {
    if (!t.params.activation)
      throw std::invalid_argument("assign_priorities_opa: task '" + t.params.name +
                                  "' has no activation model");
    if (t.deadline <= 0)
      throw std::invalid_argument("assign_priorities_opa: task '" + t.params.name +
                                  "' needs a positive deadline");
  }

  std::vector<std::size_t> unassigned(tasks.size());
  std::iota(unassigned.begin(), unassigned.end(), 0);
  std::vector<std::size_t> assigned_below;
  std::vector<int> result(tasks.size(), 0);

  for (int level = static_cast<int>(tasks.size()); level >= 1; --level) {
    bool placed = false;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      const std::size_t candidate = unassigned[pos];
      Time wcrt;
      try {
        wcrt = response_at_level(tasks, candidate, unassigned, assigned_below, policy, limits);
      } catch (const AnalysisError&) {
        continue;  // diverges at this level; try another candidate
      }
      if (wcrt <= tasks[candidate].deadline) {
        result[candidate] = level;
        assigned_below.push_back(candidate);
        unassigned.erase(unassigned.begin() + static_cast<std::ptrdiff_t>(pos));
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;  // no task schedulable at this level
  }
  return result;
}

std::vector<int> assign_priorities_dm(const std::vector<OpaTask>& tasks) {
  if (tasks.empty()) throw std::invalid_argument("assign_priorities_dm: empty task set");
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].deadline < tasks[b].deadline;
  });
  std::vector<int> result(tasks.size(), 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank)
    result[order[rank]] = static_cast<int>(rank) + 1;
  return result;
}

}  // namespace hem::sched
