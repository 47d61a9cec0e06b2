#include "core/standard_event_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hem {

StandardEventModel::StandardEventModel(Time period, Time jitter, Time d_min)
    : period_(period), jitter_(jitter), d_min_(d_min) {
  if (period <= 0) throw std::invalid_argument("SEM: period must be positive");
  if (is_infinite(period)) throw std::invalid_argument("SEM: period must be finite");
  if (jitter < 0) throw std::invalid_argument("SEM: jitter must be non-negative");
  if (d_min < 0) throw std::invalid_argument("SEM: d_min must be non-negative");
  if (d_min > period)
    throw std::invalid_argument("SEM: d_min > period is inconsistent with the long-run rate");
}

ModelPtr StandardEventModel::periodic(Time period) {
  return std::make_shared<StandardEventModel>(period, 0, period);
}

ModelPtr StandardEventModel::periodic_with_jitter(Time period, Time jitter) {
  return std::make_shared<StandardEventModel>(period, jitter, 0);
}

ModelPtr StandardEventModel::sporadic(Time period, Time jitter, Time d_min) {
  return std::make_shared<StandardEventModel>(period, jitter, d_min);
}

Time StandardEventModel::delta_min_raw(Count n) const {
  const Time spread = sat_mul(period_, n - 1);
  const Time jittered = std::max<Time>(0, sat_sub(spread, jitter_));
  return std::max(jittered, sat_mul(d_min_, n - 1));
}

Time StandardEventModel::delta_plus_raw(Count n) const {
  if (is_infinite(jitter_)) return kTimeInfinity;
  return sat_add(sat_mul(period_, n - 1), jitter_);
}

Count StandardEventModel::eta_plus_raw(Time dt) const {
  // Largest n with delta-(n) < dt, i.e. both (n-1)P - J < dt and
  // (n-1)dmin < dt.  Each bound inverts to a ceiling expression.
  if (is_infinite(dt)) return kCountInfinity;
  const Count by_period =
      is_infinite(jitter_) ? kCountInfinity : static_cast<Count>(ceil_div(dt + jitter_, period_));
  const Count by_dmin =
      d_min_ > 0 ? static_cast<Count>(ceil_div(dt, d_min_)) : kCountInfinity;
  const Count n = std::min(by_period, by_dmin);
  return n >= kCountInfinity ? kCountInfinity : n;
}

double StandardEventModel::long_run_rate_raw() const {
  // delta-(n) grows by P per event, or only by dmin once an infinite jitter
  // voids the period bound.
  if (is_infinite(jitter_)) return rate_of_spacing(d_min_);
  return std::min(rate_of_spacing(period_), rate_of_spacing(d_min_));
}

Count StandardEventModel::eta_minus_raw(Time dt) const {
  if (is_infinite(jitter_)) return 0;
  if (is_infinite(dt)) return kCountInfinity;
  if (dt <= jitter_) return 0;
  return static_cast<Count>(floor_div(dt - jitter_, period_));
}

std::string StandardEventModel::describe() const {
  std::ostringstream os;
  os << "SEM(P=" << period_ << ", J=" << jitter_ << ", dmin=" << d_min_ << ")";
  return os.str();
}

}  // namespace hem
