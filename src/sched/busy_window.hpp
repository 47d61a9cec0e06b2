#pragma once

/// \file busy_window.hpp
/// Shared types and fixpoint machinery for the busy-window local analysis
/// (Lehoczky's technique, as used at the component level of compositional
/// scheduling analysis; the analysis itself is sched/local_analysis.hpp).
///
/// Every scheduling policy follows the same scheme: determine the length L
/// of the maximal level-i busy period, the number Q of activations of the
/// task under analysis inside it, compute per-activation completion times
/// w(q) as least fixpoints of a demand equation, and report
///
///     R+ = max_{q in 1..Q} ( w(q) - delta-(q) )
///
/// where delta-(q) is the earliest arrival of the q-th activation relative
/// to the critical instant.

#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/event_model.hpp"
#include "core/errors.hpp"
#include "exec/cancel.hpp"

namespace hem::sched {

/// Local scheduling policy of a resource.
enum class Policy {
  kSppPreemptive,  ///< static-priority preemptive (CPU)
  kSpnpCan,        ///< static-priority non-preemptive with blocking (CAN bus)
  kRoundRobin,     ///< round-robin with per-task slots
  kTdma,           ///< TDMA with per-task slots and a global cycle
  kFlexRayStatic,  ///< FlexRay static segment: one slot per frame per cycle
  kEdf             ///< earliest deadline first (per-task deadlines required)
};

/// Best-case / worst-case execution (or transmission) time interval [C-, C+].
struct ExecutionTime {
  Time best;
  Time worst;

  ExecutionTime(Time b, Time w) : best(b), worst(w) {
    if (b < 0 || w < b) throw std::invalid_argument("ExecutionTime: need 0 <= C- <= C+");
  }
  /// Deterministic execution time [c, c].
  explicit ExecutionTime(Time c) : ExecutionTime(c, c) {}
};

/// A task (or bus frame) as seen by a local analysis.  Each policy reads
/// only the fields it needs.
struct TaskParams {
  std::string name;
  int priority;  ///< numerically smaller value = higher priority (SPP, CAN)
  ExecutionTime cet;
  ModelPtr activation;  ///< activation event model (outer stream for HEMs)
  Time slot = 0;        ///< service per round (round robin) or per cycle (TDMA)
  Time deadline = 0;    ///< relative deadline (EDF)
};

/// Result of a local response-time analysis for one task.
struct ResponseResult {
  std::string name;
  Time bcrt = 0;         ///< best-case response time r-
  Time wcrt = 0;         ///< worst-case response time r+
  Count activations = 0; ///< activations examined in the busy period
  Time busy_period = 0;  ///< length of the maximal level-i busy period
  Count backlog = 0;     ///< max simultaneously pending activations (buffer bound)
};

/// Maximum number of simultaneously pending activations within a busy
/// period, given the earliest arrival curve and the per-activation
/// completion times w(1..Q): when the q-th activation arrives at
/// delta-(q), exactly those p with w(p) <= delta-(q) have completed.
/// Sizing the activation queue to this bound guarantees no overflow.
[[nodiscard]] Count backlog_bound(const EventModel& activation,
                                  const std::vector<Time>& completion_times);

/// Iteration limits for all fixpoint computations.  A busy window that grows
/// beyond `max_window` or needs more than `max_iterations` steps indicates
/// an overloaded resource; the analyses then throw AnalysisError.
struct FixpointLimits {
  /// Busy windows beyond this length indicate an overloaded resource in any
  /// realistic tick granularity; keeping the cap moderate also bounds the
  /// memory of lazily materialised output-stream recursions during
  /// divergence.  Raise it for very fine-grained tick units.
  Time max_window = Time{1} << 28;
  long max_iterations = 1'000'000;
  /// Wall-clock deadline shared by every fixpoint computation of one
  /// analysis run (the global engine derives it from its own budget).
  /// Checked coarsely (every few thousand steps); exceeding it throws
  /// AnalysisError with ErrorCode::kTimeBudget.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Optional cooperative cancellation token, polled at the same coarse
  /// checkpoints as the deadline.  When it fires, the fixpoint throws
  /// AnalysisError with ErrorCode::kCancelled — which graceful mode does
  /// NOT degrade away (the engine rethrows it).  Not owned.
  const exec::CancelToken* cancel = nullptr;
};

/// Least fixpoint of the monotone demand function `f`, starting from
/// `start`:  w_{k+1} = f(w_k) until w stabilises.
/// \throws AnalysisError when limits are exceeded.
[[nodiscard]] Time least_fixpoint(const std::function<Time(Time)>& f, Time start,
                                  const FixpointLimits& limits, const std::string& what);

/// Record `priority` of `task` in `seen`.
/// \throws std::invalid_argument "<what>: duplicate priority P (task 'X')"
///         if an earlier task already holds it.
void claim_priority(std::set<int>& seen, int priority, const std::string& task,
                    const std::string& what);

/// Validate a task set for priority-based analyses: non-empty names,
/// pairwise distinct priorities, non-null activation models.
void validate_priority_task_set(const std::vector<TaskParams>& tasks, const std::string& what);

}  // namespace hem::sched
