#include "core/combinators.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/standard_event_model.hpp"

namespace hem {

OrModel::OrModel(ModelPtr left, ModelPtr right)
    : left_(std::move(left)), right_(std::move(right)) {
  if (!left_ || !right_) throw std::invalid_argument("OrModel: null input model");
}

Time OrModel::delta_min_raw(Count n) const {
  const auto need = static_cast<std::size_t>(n - 2);  // base class guarantees n >= 2
  if (need >= AtomicCurveCache::kCapacity) return crossing_delta_min(n);
  const std::size_t have = split_len_.load(std::memory_order_acquire);
  if (have > need) {
    // Slots below the published length are complete (release CAS below).
    const auto k = static_cast<Count>(split_.load(need));
    return std::max(left_->delta_min(k), right_->delta_min(n - k));
  }

  // Merge step: the next merged value is the smaller of the two children's
  // next values (ties go left; either choice yields the same value).
  // Merging starts after n = 1, where the left child's delta(1) = 0 was
  // taken first.
  Count k = have == 0 ? 1 : static_cast<Count>(split_.load(have - 1));
  Count m = static_cast<Count>(have) + 1;  // merged values consumed so far
  Time value = 0;
  for (std::size_t i = have; i <= need; ++i) {
    const Time a = left_->delta_min(k + 1);
    const Time b = right_->delta_min(m - k + 1);
    if (a <= b) ++k;
    value = std::min(a, b);
    ++m;
    (void)split_.store(i, static_cast<Time>(k));
  }

  std::size_t cur = split_len_.load(std::memory_order_relaxed);
  while (cur < need + 1) {
    if (split_len_.compare_exchange_weak(cur, need + 1, std::memory_order_release,
                                         std::memory_order_relaxed))
      break;
  }
  return value;
}

Time OrModel::crossing_delta_min(Count n) const {
  // eq. (3): min over k + (n - k) splits of max(delta-_l(k), delta-_r(n-k)).
  // a(k) = delta-_l(k) is non-decreasing and b(k) = delta-_r(n-k) is
  // non-increasing, so max(a, b) is valley-shaped; the minimum sits at the
  // crossing point, found by binary search in O(log n) child evaluations.
  const auto a = [&](Count k) { return left_->delta_min(k); };
  const auto b = [&](Count k) { return right_->delta_min(n - k); };
  // Smallest k in [0, n] with a(k) >= b(k); k = n always qualifies
  // (b(n) = delta-_r(0) = 0).
  Count lo = 0, hi = n;
  while (lo < hi) {
    const Count mid = lo + (hi - lo) / 2;
    if (a(mid) >= b(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  Time best = a(lo);                                  // k >= k*: max = a(k), min at k*
  if (lo > 0) best = std::min(best, b(lo - 1));       // k <  k*: max = b(k), min at k*-1
  return best;
}

Count OrModel::eta_plus_raw(Time dt) const {
  // eq. (1) applied to the merge: delta-_or(n) < dt iff the n smallest
  // merged values are all below dt, i.e. n <= eta+_l(dt) + eta+_r(dt).  The
  // generic inversion reports kCountInfinity exactly when eta+ reaches
  // kEtaSearchCeiling; the sum keeps that rule.
  const Count l = left_->eta_plus(dt);
  const Count r = right_->eta_plus(dt);
  if (is_infinite_count(l) || is_infinite_count(r) || l + r >= kEtaSearchCeiling)
    return kCountInfinity;
  return l + r;
}

Time OrModel::delta_plus_raw(Count n) const {
  // eq. (4): max over k_l + k_r = n - 2 of min(delta+_l(k_l + 2),
  // delta+_r(k_r + 2)).  A(k) = delta+_l(k+2) is non-decreasing and
  // B(k) = delta+_r(n-k) is non-increasing, so min(A, B) is hill-shaped;
  // binary search for the crossing point.
  const auto A = [&](Count k) { return left_->delta_plus(k + 2); };
  const auto B = [&](Count k) { return right_->delta_plus(n - k); };
  const Count k_max = n - 2;
  // Smallest k in [0, k_max] with A(k) >= B(k), or k_max + 1 if none.
  Count lo = 0, hi = k_max + 1;
  while (lo < hi) {
    const Count mid = lo + (hi - lo) / 2;
    if (mid <= k_max && A(mid) >= B(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  Time best = 0;
  if (lo <= k_max) best = std::max(best, B(lo));       // k >= k*: min = B(k), max at k*
  if (lo > 0) best = std::max(best, A(lo - 1));        // k <  k*: min = A(k), max at k*-1
  return best;
}

double OrModel::long_run_rate_raw() const {
  return left_->long_run_rate() + right_->long_run_rate();
}

std::string OrModel::describe() const {
  std::ostringstream os;
  os << "OR(" << left_->describe() << ", " << right_->describe() << ")";
  return os.str();
}

ModelPtr or_combine(std::span<const ModelPtr> inputs) {
  if (inputs.empty()) throw std::invalid_argument("or_combine: no inputs");
  ModelPtr acc = inputs[0];
  for (std::size_t i = 1; i < inputs.size(); ++i)
    acc = std::make_shared<OrModel>(acc, inputs[i]);
  return acc;
}

ModelPtr and_combine(std::span<const ModelPtr> inputs) {
  if (inputs.empty()) throw std::invalid_argument("and_combine: no inputs");
  Time period = -1;
  Time jitter = 0;
  Time d_min = kTimeInfinity;
  for (const ModelPtr& m : inputs) {
    const auto* sem = dynamic_cast<const StandardEventModel*>(m.get());
    if (sem == nullptr)
      throw std::invalid_argument(
          "and_combine: AND-activation requires standard event models (got " + m->describe() +
          ")");
    if (period == -1) period = sem->period();
    if (sem->period() != period)
      throw std::invalid_argument(
          "and_combine: AND-activation requires a common period (token buffers would grow "
          "without bound otherwise)");
    jitter = std::max(jitter, sem->jitter());
    d_min = std::min(d_min, sem->d_min());
  }
  return std::make_shared<StandardEventModel>(period, jitter, d_min);
}

}  // namespace hem
