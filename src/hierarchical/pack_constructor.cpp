#include "hierarchical/pack_constructor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/combinators.hpp"
#include "hierarchical/inner_update.hpp"
#include "verify/contracts.hpp"

namespace hem {

PendingSignalModel::PendingSignalModel(ModelPtr signal, ModelPtr frame)
    : signal_(std::move(signal)), frame_(std::move(frame)) {
  if (!signal_ || !frame_) throw std::invalid_argument("PendingSignalModel: null model");
}

Time PendingSignalModel::delta_min_raw(Count n) const {
  // eq. (7): the first of the n signal events may arrive right after a frame
  // left, waiting up to delta+_f(2); the n-th is assumed to be carried
  // immediately (conservative).  Never less than the frame stream itself
  // allows for n frames.
  const Time via_signal = sat_sub(signal_->delta_min(n), frame_->delta_plus(2));
  return std::max(std::max<Time>(via_signal, 0), frame_->delta_min(n));
}

Time PendingSignalModel::delta_plus_raw(Count /*n*/) const {
  // eq. (8): no upper bound -- a pending value may wait arbitrarily long if
  // the source stalls.
  return kTimeInfinity;
}

double PendingSignalModel::long_run_rate_raw() const {
  // A pending value is carried at most once per signal event and per frame.
  return std::min(signal_->long_run_rate(), frame_->long_run_rate());
}

std::string PendingSignalModel::describe() const {
  std::ostringstream os;
  os << "Pending(" << signal_->describe() << " in " << frame_->describe() << ")";
  return os.str();
}

HemPtr pack(const std::vector<PackInput>& inputs, ModelPtr timer) {
  if (inputs.empty()) throw std::invalid_argument("pack: no inputs");
  std::vector<ModelPtr> triggering;
  for (const auto& in : inputs) {
    if (!in.model) throw std::invalid_argument("pack: null input model");
    if (in.coupling == SignalCoupling::kTriggering) triggering.push_back(in.model);
  }
  if (timer) triggering.push_back(std::move(timer));
  if (triggering.empty())
    throw std::invalid_argument(
        "pack: no triggering input and no timer - the frame would never be sent");

  // Outer stream: OR-combination of all triggering streams (eqs. 3-4).
  ModelPtr outer = or_combine(triggering);

  // Inner streams, one per input, in input order.
  std::vector<ModelPtr> inner;
  inner.reserve(inputs.size());
  for (const auto& in : inputs) {
    if (in.coupling == SignalCoupling::kTriggering)
      inner.push_back(in.model);  // eqs. (5)-(6)
    else
      inner.push_back(std::make_shared<PendingSignalModel>(in.model, outer));  // eqs. (7)-(8)
  }

  auto hem = std::make_shared<HierarchicalEventModel>(std::move(outer), std::move(inner),
                                                      PackRule::instance());
  HEM_VERIFY_PACK(*hem, "pack (Omega_pa)");
  return hem;
}

}  // namespace hem
