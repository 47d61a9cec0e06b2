#pragma once

/// \file pack_constructor.hpp
/// The "pack" hierarchical stream constructor Omega_pa (paper Def. 8).
///
/// Models a communication layer that packs several signal streams into one
/// frame stream:
///
///   * The OUTER stream is the OR-combination of all *triggering* inputs
///     (a periodic send timer, if any, is simply one more triggering input):
///       delta-_out(n) = min_K max_{i in T} delta-_i(k_i)
///       delta+_out(n) = max_K min_{i in T} delta+_i(k_i + 2)
///   * A *triggering* input's inner stream is the input itself
///     (eqs. 5-6: every signal event causes an immediate frame).
///   * A *pending* input's inner stream bounds the frames that carry a NEW
///     value of the signal (eqs. 7-8): the first of n signal events may just
///     miss a frame, so
///       delta'-_i(n) = max( delta-_i(n) - delta+_out(2), delta-_out(n) )
///       delta'+_i(n) = infinity
///
/// The returned HierarchicalEventModel carries the PackRule construction
/// rule, whose inner update function implements Def. 9 (see inner_update.hpp).

#include <vector>

#include "hierarchical/hierarchical_event_model.hpp"

namespace hem {

/// How a signal is coupled to its frame (paper section 4).
enum class SignalCoupling {
  kTriggering,  ///< each signal event triggers a frame transmission
  kPending      ///< the signal waits in its register for the next frame
};

/// One input stream of the pack constructor.
struct PackInput {
  ModelPtr model;
  SignalCoupling coupling;
};

/// Inner model of a pending input (eqs. 7-8).  Public for direct testing.
class PendingSignalModel final : public EventModel {
 public:
  PendingSignalModel(ModelPtr signal, ModelPtr frame);

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  ModelPtr signal_;
  ModelPtr frame_;
};

/// Build the hierarchical event model Omega_pa(inputs [, timer]).
///
/// \param inputs  the signal streams to pack; one inner stream is created
///                per input, in order.
/// \param timer   optional periodic send timer (periodic / mixed frames).
///                Participates in the outer OR-combination but has no inner
///                stream of its own.
/// \throws std::invalid_argument if no input (or timer) can ever trigger a
///         frame, or inputs are empty/null.
[[nodiscard]] HemPtr pack(const std::vector<PackInput>& inputs, ModelPtr timer = nullptr);

}  // namespace hem
