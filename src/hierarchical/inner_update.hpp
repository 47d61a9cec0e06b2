#pragma once

/// \file inner_update.hpp
/// Inner update function B_{Theta_tau, C_pa} (paper Def. 9) and the
/// construction rule of the pack constructor.
///
/// When the outer stream of a pack-constructed HEM passes through a
/// task/transmission operation with response-time interval [r-, r+], two
/// effects reach the inner streams:
///   1. jitter: any distance can shrink/grow by the response spread
///      (r+ - r-), exactly as for flat output streams;
///   2. serialisation: events that arrived simultaneously (up to k of them,
///      where k is the maximum number of simultaneous outer events before
///      the operation) leave separated by at least r-, so an inner event can
///      additionally be delayed by (k - 1) * r-; conversely, consecutive
///      inner events can never leave closer than r- apart.
///
///   delta'-(n) = max( delta-(n) - (r+ - r-) - (k-1)*r-,  (n-1)*r- )
///   delta'+(n) = delta+(n) + (r+ - r-) + (k-1)*r-

#include <memory>
#include <string>

#include "hierarchical/hierarchical_event_model.hpp"

namespace hem {

/// Inner stream after the outer stream passed a response-time operation
/// (Def. 9).  Public for direct testing.
class ResponseUpdatedInnerModel final : public EventModel {
 public:
  /// \param inner    inner model before the operation.
  /// \param r_minus  minimum response time of the operation, >= 0.
  /// \param r_plus   maximum response time, >= r_minus, finite.
  /// \param k        maximum number of simultaneous outer events before the
  ///                 operation, >= 1.
  ResponseUpdatedInnerModel(ModelPtr inner, Time r_minus, Time r_plus, Count k);

  [[nodiscard]] Count k() const noexcept { return k_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  ModelPtr inner_;
  Time r_minus_;
  Time r_plus_;
  Count k_;
};

/// Construction rule C_pa of pack-constructed HEMs.
class PackRule final : public ConstructionRule {
 public:
  [[nodiscard]] static std::shared_ptr<const PackRule> instance();

  [[nodiscard]] ModelPtr update_inner_after_response(const ModelPtr& inner,
                                                     const ModelPtr& outer_old, Time r_minus,
                                                     Time r_plus) const override;

  [[nodiscard]] std::string describe() const override { return "C_pa"; }
};

}  // namespace hem
