#include "core/delta_function_model.hpp"

#include <sstream>
#include <stdexcept>

namespace hem {

namespace {

void check_monotone(const std::vector<Time>& v, const char* name) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1])
      throw std::invalid_argument(std::string("DeltaFunctionModel: ") + name +
                                  " must be non-decreasing");
  }
}

}  // namespace

DeltaFunctionModel::DeltaFunctionModel(std::vector<Time> dmin_prefix,
                                       std::vector<Time> dplus_prefix, Count extension_events,
                                       Time extension_time)
    : dmin_(std::move(dmin_prefix)),
      dplus_(std::move(dplus_prefix)),
      ext_events_(extension_events),
      ext_time_(extension_time) {
  if (dmin_.empty()) throw std::invalid_argument("DeltaFunctionModel: empty dmin prefix");
  if (dmin_.size() != dplus_.size())
    throw std::invalid_argument("DeltaFunctionModel: prefix length mismatch");
  if (ext_events_ < 1)
    throw std::invalid_argument("DeltaFunctionModel: extension_events must be >= 1");
  if (ext_time_ < 0)
    throw std::invalid_argument("DeltaFunctionModel: extension_time must be >= 0");
  check_monotone(dmin_, "dmin");
  check_monotone(dplus_, "dplus");
  for (std::size_t i = 0; i < dmin_.size(); ++i) {
    if (dmin_[i] < 0) throw std::invalid_argument("DeltaFunctionModel: negative distance");
    if (dmin_[i] > dplus_[i])
      throw std::invalid_argument("DeltaFunctionModel: dmin must not exceed dplus");
  }
  // Extension must keep the curves non-decreasing: stepping back q events and
  // adding p must not drop below the last prefix value.
  if (static_cast<Count>(dmin_.size()) > ext_events_) {
    const std::size_t last = dmin_.size() - 1;
    const std::size_t back = last - static_cast<std::size_t>(ext_events_);
    if (sat_add(dmin_[back], ext_time_) < dmin_[last] ||
        sat_add(dplus_[back], ext_time_) < dplus_[last])
      throw std::invalid_argument("DeltaFunctionModel: extension breaks monotonicity");
  }
}

ModelPtr DeltaFunctionModel::periodic_burst(Count burst_size, Time inner_distance,
                                            Time outer_period) {
  if (burst_size < 1) throw std::invalid_argument("periodic_burst: burst_size must be >= 1");
  if (inner_distance < 0 || outer_period <= 0)
    throw std::invalid_argument("periodic_burst: invalid distances");
  if (sat_mul(inner_distance, burst_size - 1) >= outer_period)
    throw std::invalid_argument("periodic_burst: burst does not fit into the outer period");
  // Exact distances within one hyper-period of burst_size events: the i-th
  // and (i+n-1)-th event of the pattern.  Because the pattern is strictly
  // periodic, delta- == delta+ and one period of values suffices.
  std::vector<Time> prefix;
  for (Count n = 2; n <= burst_size + 1; ++n) {
    // n consecutive events span (n - 1) inner gaps unless they wrap the
    // outer period boundary; minimum span keeps them within one burst where
    // possible, maximum span wraps as early as possible.
    if (n <= burst_size) {
      prefix.push_back(inner_distance * (n - 1));
    } else {
      // n == burst_size + 1: must wrap exactly once.
      prefix.push_back(outer_period);
    }
  }
  std::vector<Time> dmin = prefix;
  std::vector<Time> dplus(prefix.size());
  // Maximum span of n events: start as late in a burst as possible so the
  // window wraps the inter-burst gap as often as possible.  For n within
  // one burst-worth of events the worst case spans the gap once:
  for (Count n = 2; n <= burst_size + 1; ++n) {
    if (n <= burst_size) {
      // A window of n <= B events either stays inside one burst
      // (span (n-1)*d) or straddles the inter-burst gap exactly once; a
      // straddling window starting at in-burst index i spans
      // T + (n - B - 1) * d independent of i.
      dplus[static_cast<std::size_t>(n - 2)] =
          outer_period - inner_distance * (burst_size - (n - 1));
    } else {
      // n == B + 1 events always span exactly one full outer period.
      dplus[static_cast<std::size_t>(n - 2)] = outer_period;
    }
  }
  // Monotonicity fix-up (the straddle formula can undershoot dmin for tiny n
  // when inner_distance is large relative to the gap).
  for (std::size_t i = 0; i < dplus.size(); ++i) {
    if (dplus[i] < dmin[i]) dplus[i] = dmin[i];
    if (i > 0 && dplus[i] < dplus[i - 1]) dplus[i] = dplus[i - 1];
  }
  auto model = std::make_shared<DeltaFunctionModel>(std::move(dmin), std::move(dplus),
                                                    burst_size, outer_period);
  model->burst_size_ = burst_size;
  model->burst_inner_ = inner_distance;
  model->burst_outer_ = outer_period;
  return model;
}

Time DeltaFunctionModel::eval(const std::vector<Time>& prefix, Count n) const {
  const Count last_n = static_cast<Count>(prefix.size()) + 1;  // prefix covers n in [2, last_n]
  if (n <= last_n) return prefix[static_cast<std::size_t>(n - 2)];
  const Count overflow = n - last_n;
  const Count periods = (overflow + ext_events_ - 1) / ext_events_;
  const Count base_n = n - periods * ext_events_;
  const Time base = base_n < 2 ? 0 : prefix[static_cast<std::size_t>(base_n - 2)];
  return sat_add(base, sat_mul(ext_time_, periods));
}

Time DeltaFunctionModel::delta_min_raw(Count n) const { return eval(dmin_, n); }

Time DeltaFunctionModel::delta_plus_raw(Count n) const { return eval(dplus_, n); }

double DeltaFunctionModel::long_run_rate_raw() const {
  // Beyond the prefix q events recur every p ticks.
  if (is_infinite(dmin_.back())) return 0.0;
  return static_cast<double>(ext_events_) * rate_of_spacing(ext_time_);
}

std::string DeltaFunctionModel::describe() const {
  std::ostringstream os;
  os << "DeltaCurves(prefix=" << dmin_.size() << ", ext=" << ext_events_ << "ev/" << ext_time_
     << "t)";
  return os.str();
}

}  // namespace hem
