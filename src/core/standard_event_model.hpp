#pragma once

/// \file standard_event_model.hpp
/// Standard Event Models (SEM) after Richter: the parameter triple
/// (period P, jitter J, minimum distance dmin) used by SymTA/S as the
/// parameterised representation of the four characteristic functions.
///
/// Curves:
///   delta-(n) = max( (n-1) * P - J, (n-1) * dmin )      for n >= 2
///   delta+(n) = (n-1) * P + J                           for n >= 2
///   eta+(dt)  = min( ceil((dt + J) / P), ceil(dt / dmin) )   for dt > 0
///   eta-(dt)  = max( 0, floor((dt - J) / P) )
///
/// The closed-form eta functions override the generic pseudo-inversion; a
/// property test asserts that both agree on dense parameter sweeps.

#include <string>

#include "core/event_model.hpp"

namespace hem {

/// Periodic-with-jitter event model, optionally burst-limited by dmin.
class StandardEventModel final : public EventModel {
 public:
  /// \param period  P > 0, the long-run distance between events.
  /// \param jitter  J >= 0, maximum deviation from the periodic grid.
  /// \param d_min   dmin >= 0, minimum distance between any two events.
  ///                dmin > P is invalid (the stream could not sustain P).
  /// \throws std::invalid_argument on out-of-range parameters.
  StandardEventModel(Time period, Time jitter, Time d_min);

  /// Strictly periodic stream (J = 0, dmin = P).
  [[nodiscard]] static ModelPtr periodic(Time period);

  /// Periodic stream with jitter (dmin defaults to 0: simultaneous arrivals
  /// allowed when J >= P, the classic "burst" regime).
  [[nodiscard]] static ModelPtr periodic_with_jitter(Time period, Time jitter);

  /// Sporadic stream: events at least `d_min` apart, long-run period P.
  [[nodiscard]] static ModelPtr sporadic(Time period, Time jitter, Time d_min);

  [[nodiscard]] Time period() const noexcept { return period_; }
  [[nodiscard]] Time jitter() const noexcept { return jitter_; }
  [[nodiscard]] Time d_min() const noexcept { return d_min_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] Count eta_plus_raw(Time dt) const override;
  [[nodiscard]] Count eta_minus_raw(Time dt) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  Time period_;
  Time jitter_;
  Time d_min_;
};

}  // namespace hem
