#pragma once

/// \file edf.hpp
/// Earliest-Deadline-First schedulability and response-time analysis via
/// demand bound functions (the analysis style Gresser's event-vector work
/// introduced - cited as [4] in the paper's related work).
///
/// For a task i with relative deadline D_i activated by an event model,
/// the demand bound function on an interval of size t is the execution
/// demand of all activations that both arrive and have their deadline
/// inside the interval:
///
///   dbf_i(t) = eta+_i(t - D_i + 1) * C+_i          (t >= D_i, else 0)
///
/// (with the library's strict-inequality eta+ semantics, eta+(x + 1)
/// counts events within a closed window of length x).  The task set is
/// EDF-schedulable iff  sum_i dbf_i(t) <= t  for all t up to the busy
/// period.  Worst-case response times follow Spuri's analysis generalised
/// to event models: the deadline busy period may start before the analysed
/// job's arrival, so responses are maximised over an offset scan whose
/// candidates are the alignments of the job's absolute deadline with other
/// tasks' job deadlines (the response is piecewise between alignments).
/// The offset scan is validated against the preemptive EDF simulator in
/// tests/integration/random_validation_test.cpp (RandomEdf) - the
/// synchronous-only variant is demonstrably unsound there.

#include <vector>

#include "sched/busy_window.hpp"

namespace hem::sched {

/// A task under EDF: base parameters (priority ignored) plus its relative
/// deadline.
struct EdfTask {
  TaskParams params;
  Time deadline;  ///< relative deadline D_i > 0
};

class EdfAnalysis {
 public:
  explicit EdfAnalysis(std::vector<EdfTask> tasks, FixpointLimits limits = {});

  /// Total demand bound of the task set on an interval of size t.
  [[nodiscard]] Time demand_bound(Time t) const;

  /// Demand bound of one task on an interval of size t.
  [[nodiscard]] Time demand_bound(std::size_t index, Time t) const;

  /// Length of the synchronous busy period (the horizon that must be
  /// checked).
  [[nodiscard]] Time busy_period() const;

  /// True iff dbf(t) <= t for every t in the busy period.
  [[nodiscard]] bool schedulable() const;

  /// Worst-case response time of the task at `index` (Spuri-style search
  /// over deadline-ordered busy periods).
  /// \throws AnalysisError if the task set is not schedulable.
  [[nodiscard]] ResponseResult analyze(std::size_t index) const;
  [[nodiscard]] std::vector<ResponseResult> analyze_all() const;

 private:
  std::vector<EdfTask> tasks_;
  FixpointLimits limits_;
};

}  // namespace hem::sched
