#include "hierarchical/inner_update.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/errors.hpp"

namespace hem {

ResponseUpdatedInnerModel::ResponseUpdatedInnerModel(ModelPtr inner, Time r_minus, Time r_plus,
                                                     Count k)
    : inner_(std::move(inner)), r_minus_(r_minus), r_plus_(r_plus), k_(k) {
  if (!inner_) throw std::invalid_argument("ResponseUpdatedInnerModel: null inner model");
  if (r_minus < 0 || r_plus < r_minus)
    throw std::invalid_argument("ResponseUpdatedInnerModel: need 0 <= r- <= r+");
  if (is_infinite(r_plus))
    throw std::invalid_argument("ResponseUpdatedInnerModel: unbounded response time");
  if (k < 1) throw std::invalid_argument("ResponseUpdatedInnerModel: need k >= 1");
}

Time ResponseUpdatedInnerModel::delta_min_raw(Count n) const {
  const Time shrink = sat_add(r_plus_ - r_minus_, sat_mul(r_minus_, k_ - 1));
  const Time shifted = sat_sub(inner_->delta_min(n), shrink);
  return std::max(std::max<Time>(shifted, 0), sat_mul(r_minus_, n - 1));
}

Time ResponseUpdatedInnerModel::delta_plus_raw(Count n) const {
  const Time grow = sat_add(r_plus_ - r_minus_, sat_mul(r_minus_, k_ - 1));
  return sat_add(inner_->delta_plus(n), grow);
}

double ResponseUpdatedInnerModel::long_run_rate_raw() const {
  return std::min(inner_->long_run_rate(), rate_of_spacing(r_minus_));
}

std::string ResponseUpdatedInnerModel::describe() const {
  std::ostringstream os;
  os << "InnerUpd(r=[" << r_minus_ << ":" << r_plus_ << "], k=" << k_ << ", "
     << inner_->describe() << ")";
  return os.str();
}

std::shared_ptr<const PackRule> PackRule::instance() {
  static const auto rule = std::make_shared<const PackRule>();
  return rule;
}

ModelPtr PackRule::update_inner_after_response(const ModelPtr& inner, const ModelPtr& outer_old,
                                               Time r_minus, Time r_plus) const {
  const Count k = outer_old->max_simultaneous_events();
  if (is_infinite_count(k))
    throw AnalysisError(
        "PackRule: outer stream allows unbounded simultaneous events; inner update undefined",
        ErrorCode::kUnbounded);
  return std::make_shared<ResponseUpdatedInnerModel>(inner, r_minus, r_plus, std::max<Count>(1, k));
}

}  // namespace hem
