#pragma once

/// \file delta_function_model.hpp
/// Event model defined by explicit delta curves.
///
/// Stores delta-(n) and delta+(n) point-wise for n = 2 .. 1 + prefix length
/// and extends both curves linearly beyond the stored prefix:
///
///   delta(n) = delta(n - q) + p        for n beyond the prefix
///
/// where (q, p) is the extension pair (q events recur every p ticks).  This
/// is the general "arbitrary curve" representation used to express measured
/// or hand-constructed streams (e.g. bursty patterns that no SEM captures),
/// mirroring the role of finite curve prefixes with periodic extension in
/// Real-Time Calculus tooling.

#include <string>
#include <vector>

#include "core/event_model.hpp"

namespace hem {

class DeltaFunctionModel final : public EventModel {
 public:
  /// \param dmin_prefix   delta-(2), delta-(3), ... (at least one value).
  /// \param dplus_prefix  delta+(2), delta+(3), ...; must have the same
  ///                      length as dmin_prefix.  Entries may be
  ///                      kTimeInfinity (and then all later ones must be).
  /// \param extension_events  q >= 1, events per extension period.
  /// \param extension_time    p >= 0, ticks per extension period
  ///                          (kTimeInfinity extends delta+ as unbounded).
  /// \throws std::invalid_argument if a curve is not non-decreasing, if
  ///         dmin exceeds dplus anywhere, or if the extension would break
  ///         monotonicity.
  DeltaFunctionModel(std::vector<Time> dmin_prefix, std::vector<Time> dplus_prefix,
                     Count extension_events, Time extension_time);

  /// A strictly periodic burst pattern: bursts of `burst_size` events with
  /// inner distance `inner_distance`, bursts repeating every `outer_period`.
  /// The classic stream shape that standard event models over-approximate.
  [[nodiscard]] static ModelPtr periodic_burst(Count burst_size, Time inner_distance,
                                               Time outer_period);

  /// True when this node was built by periodic_burst(), i.e. the burst-shape
  /// accessors below describe it exactly.  The textual `.hemcpa` format can
  /// only express that factory shape (`source ... burst size= inner=
  /// period=`), not arbitrary curve prefixes, so the serialiser
  /// (scenarios::to_config_text) keys off this flag.
  [[nodiscard]] bool is_periodic_burst() const noexcept { return burst_size_ >= 1; }
  [[nodiscard]] Count burst_size() const noexcept { return burst_size_; }
  [[nodiscard]] Time burst_inner() const noexcept { return burst_inner_; }
  [[nodiscard]] Time burst_outer() const noexcept { return burst_outer_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  [[nodiscard]] Time eval(const std::vector<Time>& prefix, Count n) const;

  std::vector<Time> dmin_;   // dmin_[i] == delta-(i + 2)
  std::vector<Time> dplus_;  // dplus_[i] == delta+(i + 2)
  Count ext_events_;
  Time ext_time_;
  // Burst-shape record, set only by the periodic_burst() factory.
  Count burst_size_ = 0;
  Time burst_inner_ = 0;
  Time burst_outer_ = 0;
};

}  // namespace hem
