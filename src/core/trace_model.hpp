#pragma once

/// \file trace_model.hpp
/// Event model derived from a concrete, finite event trace.
///
/// Given the timestamps of one observed event sequence, the trace model
/// reports the tightest delta curves consistent with that observation:
///
///   delta-(n) = min_i ( t[i + n - 1] - t[i] )
///   delta+(n) = max_i ( t[i + n - 1] - t[i] )
///
/// For n beyond the trace length both curves are `kTimeInfinity` (the trace
/// observes nothing there).  A TraceModel is an *observation summary*, used
/// by the simulator-based validation to check analytic bounds
/// (observed eta+ <= analytic eta+, observed delta- >= analytic delta-); it
/// is not a sound abstraction of the underlying stream beyond the trace.

#include <string>
#include <vector>

#include "core/event_model.hpp"

namespace hem {

class TraceModel final : public EventModel {
 public:
  /// \param timestamps  event times; will be sorted.  May be empty.
  explicit TraceModel(std::vector<Time> timestamps);

  [[nodiscard]] Count length() const noexcept { return static_cast<Count>(times_.size()); }
  [[nodiscard]] const std::vector<Time>& timestamps() const noexcept { return times_; }

  /// Largest number of trace events inside any half-open window [t, t + dt).
  /// Equals eta_plus(dt) derived from the delta curves via eq. (1); exposed
  /// separately for direct window-counting cross-checks in tests.
  [[nodiscard]] Count max_events_in_window(Time dt) const;

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  std::vector<Time> times_;
};

}  // namespace hem
