#pragma once

/// \file leaky_bucket_model.hpp
/// Leaky-bucket (token-bucket) arrival model: the network-calculus style
/// specification "at most b events at once, then at most one event every
/// `spacing` ticks" - the affine arrival curve alpha(dt) = b + dt/spacing.
///
///   eta+(dt)  = b + floor((dt - 1) / spacing) + ...   (derived)
///   delta-(n) = max(0, (n - b) * spacing)             for n >= 2
///   delta+(n) = infinity                              (no lower arrival bound)
///
/// Useful to express specifications given as (burst, rate) pairs and to
/// cross-validate against Real-Time-Calculus-style inputs.  A leaky bucket
/// bounds only the eta+/delta- direction; eta- is zero (the stream may be
/// silent), matching the usual upper-arrival-curve semantics.

#include <string>

#include "core/event_model.hpp"

namespace hem {

class LeakyBucketModel final : public EventModel {
 public:
  /// \param burst    b >= 1 events that may arrive back to back.
  /// \param spacing  sustained minimum spacing (> 0) once the bucket is
  ///                 drained.
  LeakyBucketModel(Count burst, Time spacing);

  [[nodiscard]] Count burst() const noexcept { return burst_; }
  [[nodiscard]] Time spacing() const noexcept { return spacing_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  Count burst_;
  Time spacing_;
};

}  // namespace hem
