#pragma once

/// \file shaper.hpp
/// Greedy minimum-distance shaper (traffic shaping stream operation).
///
/// The shaper releases event i at s_i = max(a_i, s_{i-1} + d): events pass
/// through unchanged unless they would violate the minimum distance d.
/// With D := max_n ( (n-1) d - delta-(n) )^+ the worst-case shaping delay,
/// the output stream satisfies (the delta-domain counterpart of the
/// network-calculus result that a greedy shaper's output conforms to the
/// min-plus convolution of input arrival curve and shaping curve):
///
///   delta'-(n) = max_{k in [1, n]} ( delta-(k) + (n - k) d )
///   delta'+(n) = delta+(n) + D
///
/// The shaper is stable only if the input's long-run rate does not exceed
/// 1/d; otherwise the backlog (and D) grows without bound and construction
/// throws AnalysisError.  Shapers are the classic remedy for the transient
/// bursts that packing operations and jitter propagation create, and are
/// used in the ablation benchmarks to isolate the benefit of HEMs over
/// "shape the frame stream and stay flat" approaches.

#include <string>

#include "core/event_model.hpp"

namespace hem {

class MinDistanceShaper final : public EventModel {
 public:
  /// \param input       stream to shape.
  /// \param distance    d > 0, enforced minimum output distance.
  /// \param horizon     number of events scanned when bounding the shaping
  ///                    delay; the default is ample for streams whose curves
  ///                    settle within a few thousand events.
  /// \throws AnalysisError if the shaper is overloaded (delay bound still
  ///         growing at the scan horizon).
  explicit MinDistanceShaper(ModelPtr input, Time distance, Count horizon = 1 << 14);

  /// Worst-case delay the shaper adds to any event.
  [[nodiscard]] Time delay_bound() const noexcept { return delay_bound_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  ModelPtr input_;
  Time distance_;
  Time delay_bound_ = 0;
};

}  // namespace hem
