#pragma once

/// \file resource_sim.hpp
/// One simulated resource under any cpa::Policy.
///
/// Every policy shares the same machinery: a FIFO of jobs per task (arrival
/// time, remaining demand, absolute deadline), one pending calendar event
/// that an epoch counter invalidates whenever the schedule changes, and an
/// on_start/on_complete hook pair.  Only the pick step differs - which job
/// runs next and for how long:
///
///   kSppPreemptive  highest priority (smallest number), preemptive
///   kSpnpCan        highest priority, non-preemptive (CAN arbitration)
///   kRoundRobin     rotor over the tasks, slice = min(remaining, slot),
///                   slices are not preempted
///   kEdf            earliest absolute deadline, preemptive
///   kTdma           only the owner of the current slot runs; slots sit
///                   back to back in task order at the start of each
///                   tdma_cycle; the owner is preempted at its slot end
///   kFlexRayStatic  frame i owns the slot starting at i * slot_length in
///                   each cycle and sends one pending instance there
///
/// Ties on the priority/deadline key go to the lower task index.  Jobs
/// released at one instant are dispatched as they arrive, so a
/// non-preemptive resource that is idle starts the first of them; jobs that
/// on_complete releases are arbitrated together once it returns.

#include <cstdint>
#include <deque>
#include <functional>
#include <random>
#include <vector>

#include "core/time.hpp"
#include "model/system.hpp"
#include "sim/event_calendar.hpp"

namespace hem::sim {

/// Observations of one task.  `responses[k]` and `completions[k]` belong
/// to the k-th completed job, which is the job activated at
/// `activations[k]` (jobs of one task are served FIFO).
struct TaskStats {
  std::vector<Time> activations;
  std::vector<Time> responses;
  std::vector<Time> completions;
  Time wcrt = 0;  ///< max of `responses` (0 when no job completed)
};

class ResourceSim {
 public:
  /// \param resource    policy plus, for kTdma/kFlexRayStatic, the cycle
  ///                    and (FlexRay) slot length.
  /// \param tasks       the resource's tasks; `resource` fields are ignored.
  /// \param worst_case  if true every job demands cet.worst; else its
  ///                    demand is drawn uniformly from [cet.best, cet.worst]
  ///                    at activation.
  /// \throws std::invalid_argument when the tasks do not give the policy
  ///         what it needs (see the constructor).
  ResourceSim(EventCalendar& cal, cpa::ResourceSpec resource, std::vector<cpa::TaskSpec> tasks,
              bool worst_case, std::mt19937_64& rng);
  // Pending calendar events capture `this`.
  ResourceSim(const ResourceSim&) = delete;
  ResourceSim& operator=(const ResourceSim&) = delete;

  /// Release one job of task `idx` at calendar time.
  void activate(std::size_t idx);

  /// Called with the task index when a job first gets the resource (a COM
  /// frame latches its registers here) and when it completes.
  std::function<void(std::size_t)> on_start;
  std::function<void(std::size_t)> on_complete;

  [[nodiscard]] const TaskStats& stats(std::size_t idx) const { return stats_.at(idx); }

  /// Completed jobs whose response exceeded their task's deadline (tasks
  /// with a deadline only).
  [[nodiscard]] Count deadline_misses() const noexcept { return misses_; }

 private:
  struct Job {
    Time arrival;
    Time remaining;
    Time abs_deadline;
    bool started = false;
  };
  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

  /// The job to run now and how long it may run before the resource must
  /// decide again; an idle pick may name a time to look again (time-driven
  /// policies wait for a slot).
  struct Pick {
    std::size_t task = kIdle;
    Time budget = 0;
    Time wake = kTimeInfinity;
  };

  [[nodiscard]] Pick pick() const;
  [[nodiscard]] bool preemptive() const noexcept;
  /// Start of task `idx`'s slot: the latest at or before now (`earlier`)
  /// or the earliest strictly after now.
  [[nodiscard]] Time slot_start(std::size_t idx, bool earlier) const;
  void dispatch();
  void end_of_run();

  EventCalendar& cal_;
  cpa::ResourceSpec resource_;
  std::vector<cpa::TaskSpec> tasks_;
  std::vector<Time> slot_offset_;  ///< kTdma / kFlexRayStatic: offset in the cycle
  std::vector<std::deque<Job>> queues_;
  std::vector<TaskStats> stats_;

  std::size_t running_ = kIdle;
  Time resumed_at_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t rotor_ = 0;     ///< kRoundRobin: next task offered a turn
  bool in_hook_ = false;      ///< defer dispatch while on_complete runs
  Count misses_ = 0;

  bool worst_case_;
  std::mt19937_64& rng_;
};

}  // namespace hem::sim
