#include "com/com_layer.hpp"

#include <stdexcept>

#include "core/combinators.hpp"
#include "core/output_model.hpp"
#include "core/standard_event_model.hpp"
#include "hierarchical/pack_constructor.hpp"
#include "sched/local_analysis.hpp"

namespace hem::com {

namespace {

std::vector<PackInput> pack_inputs_for(const Frame& f) {
  // One pack input per delivery unit: an ungrouped signal keeps its own
  // source model; a signal group's delivery stream is the OR of its
  // members (any member update refreshes the group).
  std::vector<PackInput> inputs;
  const auto units = f.delivery_units();
  inputs.reserve(units.size());
  for (const auto& unit : units) {
    std::vector<ModelPtr> sources;
    sources.reserve(unit.members.size());
    for (const std::size_t m : unit.members) sources.push_back(f.signals[m].source);
    inputs.push_back(PackInput{or_combine(sources), f.signal_triggers(unit.members.front())
                                                        ? SignalCoupling::kTriggering
                                                        : SignalCoupling::kPending});
  }
  return inputs;
}

ModelPtr timer_for(const Frame& f) {
  if (f.type == FrameType::kPeriodic || f.type == FrameType::kMixed)
    return StandardEventModel::periodic(f.period);
  return nullptr;
}

}  // namespace

ComLayer::ComLayer(std::vector<Frame> frames) : frames_(std::move(frames)) {
  if (frames_.empty()) throw std::invalid_argument("ComLayer: no frames");
  for (const auto& f : frames_) f.validate();
}

ModelPtr ComLayer::activation_model(std::size_t i) const {
  return packed_model(i)->outer();
}

HemPtr ComLayer::packed_model(std::size_t i) const {
  const Frame& f = frames_.at(i);
  return pack(pack_inputs_for(f), timer_for(f));
}

HemPtr ComLayer::transmitted(std::size_t i, Time r_minus, Time r_plus) const {
  return packed_model(i)->after_response(r_minus, r_plus);
}

ModelPtr ComLayer::flat_receiver_model(std::size_t i, Time r_minus, Time r_plus) const {
  return std::make_shared<OutputModel>(activation_model(i), r_minus, r_plus);
}

ComLayer::CanBusResult ComLayer::analyze_on_can(sched::FixpointLimits limits) const {
  std::vector<sched::TaskParams> params;
  std::vector<HemPtr> packed;
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i].transmission_time.has_value())
      throw std::invalid_argument("ComLayer::analyze_on_can: frame '" + frames_[i].name +
                                  "' has no transmission time");
    packed.push_back(packed_model(i));
    params.push_back(sched::TaskParams{frames_[i].name, frames_[i].priority,
                                       *frames_[i].transmission_time, packed.back()->outer()});
  }
  CanBusResult result;
  result.responses =
      sched::LocalAnalysis(sched::Policy::kSpnpCan, std::move(params), limits).analyze_all();
  for (std::size_t i = 0; i < frames_.size(); ++i)
    result.transmitted.push_back(
        packed[i]->after_response(result.responses[i].bcrt, result.responses[i].wcrt));
  return result;
}

}  // namespace hem::com
