#include "core/output_model.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace hem {

namespace {

// Probes for the materialised delta'- recursion shared across threads.
// publish_race counts prefix extensions another thread (redundantly,
// identically) computed first — the lock-free analogue of the old
// lock_contention probe.
obs::Counter& g_rec_hit = obs::registry().counter("engine.cache.rec_hit");
obs::Counter& g_rec_extend = obs::registry().counter("engine.cache.rec_extend");
obs::Counter& g_rec_race = obs::registry().counter("engine.cache.rec_publish_race");

}  // namespace

OutputModel::OutputModel(ModelPtr input, Time r_minus, Time r_plus)
    : input_(std::move(input)), r_minus_(r_minus), r_plus_(r_plus) {
  if (!input_) throw std::invalid_argument("OutputModel: null input model");
  if (r_minus < 0 || r_plus < r_minus)
    throw std::invalid_argument("OutputModel: need 0 <= r- <= r+");
  if (is_infinite(r_plus))
    throw std::invalid_argument("OutputModel: unbounded response time (analysis failed?)");
}

Time OutputModel::delta_min_raw(Count n) const {
  const auto need = static_cast<std::size_t>(n - 2);  // base class guarantees n >= 2
  const std::size_t have = rec_len_.load(std::memory_order_acquire);
  if (have > need) {
    // Slots below the published prefix length are complete: the release
    // CAS in extend() pairs with this acquire load.
    obs::bump(g_rec_hit);
    return rec_.load(need);
  }
  Time value = 0;
  (void)extend(have, need, std::numeric_limits<Time>::max(), value);
  return value;
}

std::size_t OutputModel::extend(std::size_t from, std::size_t need, Time stop,
                                Time& last) const {
  obs::bump(g_rec_extend);

  // Extend the recursion in a private arena: `prev` rides in a register,
  // the input sub-DAG is queried with no lock held, and concurrent
  // extensions of the same range compute identical values (the model is
  // pure), so the racing slot stores are benign.
  const Time spread = r_plus_ - r_minus_;
  Time prev = from == 0 ? 0 : rec_.load(from - 1);  // delta'-(from + 1)
  std::size_t i = from;
  for (;; ++i) {
    const auto m = static_cast<Count>(i) + 2;  // the n this slot holds
    const Time shifted = std::max<Time>(0, sat_sub(input_->delta_min(m), spread));
    prev = std::max(shifted, sat_add(prev, r_minus_));
    (void)rec_.store(i, prev);
    if (i >= need || prev >= stop) break;
  }

  // Publish the extended prefix with a CAS-max, capped at the table's
  // capacity (an unstored slot must never fall below the published length).
  const std::size_t len = std::min(i + 1, AtomicCurveCache::kCapacity);
  std::size_t cur = rec_len_.load(std::memory_order_relaxed);
  while (cur < len) {
    if (rec_len_.compare_exchange_weak(cur, len, std::memory_order_release,
                                       std::memory_order_relaxed))
      break;
    obs::bump(g_rec_race);
  }
  last = prev;
  return i;
}

Count OutputModel::eta_plus_raw(Time dt) const {
  // eq. (1): the largest n >= 2 with delta'-(n) < dt, or 1.  Slot i holds
  // delta'-(i + 2), and the recursion is non-decreasing.
  const std::size_t have = rec_len_.load(std::memory_order_acquire);
  std::size_t first;  // first slot with a value >= dt
  if (have > 0 && rec_.load(have - 1) >= dt) {
    std::size_t lo = 0, hi = have - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (rec_.load(mid) >= dt)
        hi = mid;
      else
        lo = mid + 1;
    }
    first = lo;
  } else {
    // Scan on from the prefix.  The generic inversion gives up at
    // kEtaSearchCeiling events (delta-(ceiling) < dt); stopping the scan at
    // that slot keeps its answer.
    const auto ceiling = static_cast<std::size_t>(kEtaSearchCeiling - 2);
    Time value = 0;
    first = extend(have, ceiling, dt, value);
    if (value < dt) return kCountInfinity;
  }
  return static_cast<Count>(first) + 1;  // slot `first` holds n = first + 2
}

Time OutputModel::delta_plus_raw(Count n) const {
  return sat_add(input_->delta_plus(n), r_plus_ - r_minus_);
}

double OutputModel::long_run_rate_raw() const {
  // Completions keep the input's rate and are at least r- apart.
  return std::min(input_->long_run_rate(), rate_of_spacing(r_minus_));
}

std::string OutputModel::describe() const {
  std::ostringstream os;
  os << "Out(" << input_->describe() << ", r=[" << r_minus_ << ":" << r_plus_ << "])";
  return os.str();
}

}  // namespace hem
