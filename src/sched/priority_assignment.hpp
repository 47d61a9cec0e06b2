#pragma once

/// \file priority_assignment.hpp
/// Audsley's Optimal Priority Assignment (OPA) over the library's local
/// analyses: find static priorities such that every task meets its
/// deadline, if any such assignment exists.
///
/// OPA assigns the LOWEST free priority level to any task that is
/// schedulable at that level (with all still-unassigned tasks above it)
/// and recurses.  It is optimal for analyses where a task's response time
/// depends only on the SET of higher-priority tasks (not their relative
/// order) and does not improve when the task is raised - true for the
/// preemptive SPP analysis and for the CAN (SPNP) analysis with blocking.

#include <optional>
#include <vector>

#include "sched/busy_window.hpp"

namespace hem::sched {

/// A task to be placed: parameters (priority field ignored) + deadline.
struct OpaTask {
  TaskParams params;
  Time deadline;
};

/// Compute a feasible priority assignment under `policy`, which must be
/// Policy::kSppPreemptive or Policy::kSpnpCan.
/// \return priorities aligned with the input order (1 = highest), or
///         std::nullopt if no static-priority assignment is feasible under
///         the chosen analysis.
[[nodiscard]] std::optional<std::vector<int>> assign_priorities_opa(
    const std::vector<OpaTask>& tasks, Policy policy = Policy::kSppPreemptive,
    FixpointLimits limits = {});

/// Deadline-monotonic assignment (optimal for constrained deadlines under
/// preemptive SPP without jitter; cheap heuristic otherwise).
/// \return priorities aligned with the input order (1 = highest).
[[nodiscard]] std::vector<int> assign_priorities_dm(const std::vector<OpaTask>& tasks);

}  // namespace hem::sched
