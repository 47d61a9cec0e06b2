#pragma once

/// \file combinators.hpp
/// Stream combination operations: OR- and AND-activation.
///
/// OR-activation (paper eqs. 3-4, originally Jersak): a task activated by
/// any event of any input sees the union of the input streams.  For the
/// contribution vector K = (k_1..k_m) with sum k_i = n:
///
///   delta-_or(n) = min_K  max_i delta-_i(k_i)                      (3)
///   delta+_or(n) = max_{K: sum = n-2}  min_i delta+_i(k_i + 2)     (4)
///
/// Both folds are associative, so m-ary combination is built from binary
/// nodes.  Eq. (3) makes delta-_or(n) the n-th smallest value of the merged
/// sequences delta-_l(1), delta-_l(2), ... and delta-_r(1), delta-_r(2), ...
/// (both start at delta(1) = 0): a window holds n events iff it holds k of
/// the left and n - k of the right stream.  Inverting with eq. (1) gives
/// the exact eta+_or(dt) = eta+_l(dt) + eta+_r(dt).
///
/// AND-activation: an activation occurs once every input has delivered an
/// event.  Following Jersak/SymTA/S practice, AND requires all inputs to
/// share the same long-run period (otherwise token buffers grow without
/// bound); the result is a SEM with the common period, the maximum input
/// jitter, and the minimum input dmin (conservative: consecutive AND
/// completions are separated by at least min_i dmin_i).

#include <atomic>
#include <span>
#include <string>

#include "core/curve_cache.hpp"
#include "core/event_model.hpp"

namespace hem {

/// Binary OR-combination node (eqs. 3-4).
class OrModel final : public EventModel {
 public:
  OrModel(ModelPtr left, ModelPtr right);

  [[nodiscard]] const ModelPtr& left() const noexcept { return left_; }
  [[nodiscard]] const ModelPtr& right() const noexcept { return right_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

  /// eta+_l(dt) + eta+_r(dt); kCountInfinity when either side is unbounded
  /// or the sum reaches kEtaSearchCeiling (the generic inversion's rule).
  [[nodiscard]] Count eta_plus_raw(Time dt) const override;

 private:
  /// eq. (3) by binary search for the crossing point, O(log n) child
  /// queries; serves n beyond the merge table's capacity.
  [[nodiscard]] Time crossing_delta_min(Count n) const;

  ModelPtr left_;
  ModelPtr right_;

  // delta- is materialised as a merge of the children's delta- sequences:
  // split_[n - 2] holds how many of the first n merged values came from the
  // left child, so delta-_or(n) = max(delta-_l(k), delta-_r(n - k)) with
  // k = split_[n - 2], and extending the prefix by one slot takes one
  // comparison.  Publication follows OutputModel: threads extend the merge
  // in a private arena, store the (identical) slots into the lock-free
  // table and CAS-max split_len_; readers below split_len_ (acquire) see a
  // complete prefix.
  mutable AtomicCurveCache split_;
  mutable std::atomic<std::size_t> split_len_{0};
};

/// m-ary OR-combination by pairwise folding.  Requires at least one input;
/// a single input is returned unchanged.
[[nodiscard]] ModelPtr or_combine(std::span<const ModelPtr> inputs);

/// AND-combination of standard event models with a common period.
/// \throws std::invalid_argument if any input is not a StandardEventModel
///         or periods differ.
[[nodiscard]] ModelPtr and_combine(std::span<const ModelPtr> inputs);

}  // namespace hem
