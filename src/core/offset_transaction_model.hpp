#pragma once

/// \file offset_transaction_model.hpp
/// Transaction source: k events per period T at fixed offsets, each with a
/// release jitter.  Models multi-rate runnables triggered from one OS
/// table, or frames scheduled at offsets to de-burst a bus (the classic
/// "offset scheduling" optimisation).
///
/// Events: t = m * T + o_i + x,  x in [0, J],  i in [0, k).
/// Exact curves are computed by enumerating window start offsets over one
/// hyper-period (the offset pattern repeats with T):
///
///   delta-(n) = min_i ( span_i(n) ) - J
///   delta+(n) = max_i ( span_i(n) ) + J
///
/// where span_i(n) is the distance from offset event i to the (n-1)-th
/// next offset event in the nominal (jitter-free) pattern.  Requires
/// J small enough to keep event order stable (J <= min inter-offset gap),
/// which the constructor enforces; this keeps the curves exact instead of
/// conservative.

#include <string>
#include <vector>

#include "core/event_model.hpp"

namespace hem {

class OffsetTransactionModel final : public EventModel {
 public:
  /// \param period   T > 0.
  /// \param offsets  event offsets within the period; values in [0, T),
  ///                 at least one, will be sorted; duplicates allowed only
  ///                 when jitter == 0.
  /// \param jitter   J >= 0 per-event release jitter; must not exceed the
  ///                 smallest inter-offset gap (order stability).
  OffsetTransactionModel(Time period, std::vector<Time> offsets, Time jitter = 0);

  [[nodiscard]] Time period() const noexcept { return period_; }
  [[nodiscard]] const std::vector<Time>& offsets() const noexcept { return offsets_; }
  [[nodiscard]] Time jitter() const noexcept { return jitter_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  /// Nominal distance from offset event `i` to the event `steps` positions
  /// later in the infinite offset pattern.
  [[nodiscard]] Time nominal_span(std::size_t i, Count steps) const;

  Time period_;
  std::vector<Time> offsets_;
  Time jitter_;
};

}  // namespace hem
