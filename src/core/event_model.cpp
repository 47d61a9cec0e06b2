#include "core/event_model.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "rtc/compile.hpp"

namespace hem {

namespace {

// Observability probes for the per-node delta caches (aggregated across all
// nodes; recorded only while obs::counting() is on).  publish_race counts a
// store that lost to a concurrent identical computation — the lock-free
// analogue of the old lock_contention probe; segment_alloc counts memo
// arena (segment) materialisations.
obs::Counter& g_cache_hit = obs::registry().counter("engine.cache.hit");
obs::Counter& g_cache_miss = obs::registry().counter("engine.cache.miss");
obs::Counter& g_cache_race = obs::registry().counter("engine.cache.publish_race");
obs::Counter& g_cache_alloc = obs::registry().counter("engine.cache.segment_alloc");
// Nodes whose long-run rate had no closed form and was sampled instead;
// counted unconditionally (it is rare and its target is zero).
obs::Counter& g_rate_fallbacks = obs::registry().counter("engine.rate_fallbacks");

/// Publish a computed sample, tracking duplicate-computation races and
/// fresh segment allocations.  The store itself reports whether THIS call
/// materialised a segment: diffing the cache-wide allocation counter around
/// the call would attribute a concurrent work unit's allocation on the same
/// shared node to whichever unit happened to be inside the window.
void publish(AtomicCurveCache& cache, std::size_t idx, Time v) {
  bool allocated = false;
  const auto result = cache.store(idx, v, allocated);
  if (!obs::counting()) return;
  if (result == AtomicCurveCache::StoreResult::kDuplicate) g_cache_race.add(1);
  if (allocated) g_cache_alloc.add(1);
}

}  // namespace

EventModel::~EventModel() { delete compiled_.load(std::memory_order_acquire); }

Time EventModel::delta_min(Count n) const {
  if (const auto* c = compiled_.load(std::memory_order_acquire)) {
    Time v;
    if (c->try_delta_min(n, v)) return v;
  }
  return delta_min_lazy(n);
}

Time EventModel::delta_plus(Count n) const {
  if (const auto* c = compiled_.load(std::memory_order_acquire)) {
    Time v;
    if (c->try_delta_plus(n, v)) return v;
  }
  return delta_plus_lazy(n);
}

Count EventModel::eta_plus(Time dt) const {
  if (const auto* c = compiled_.load(std::memory_order_acquire)) {
    Count v;
    if (c->try_eta_plus(dt, v)) return v;
  }
  return eta_plus_lazy(dt);
}

Count EventModel::eta_minus(Time dt) const {
  if (const auto* c = compiled_.load(std::memory_order_acquire)) {
    Count v;
    if (c->try_eta_minus(dt, v)) return v;
  }
  return eta_minus_lazy(dt);
}

Time EventModel::delta_min_lazy(Count n) const {
  if (n < 2) return 0;
  const auto idx = static_cast<std::size_t>(n - 2);
  const Time cached = dmin_cache_.load(idx);
  if (cached != AtomicCurveCache::kUnset) {
    obs::bump(g_cache_hit);
    return cached;
  }
  obs::bump(g_cache_miss);
  const Time v = delta_min_raw(n);  // evaluated before publication; models are pure
  publish(dmin_cache_, idx, v);
  return v;
}

Time EventModel::delta_plus_lazy(Count n) const {
  if (n < 2) return 0;
  const auto idx = static_cast<std::size_t>(n - 2);
  const Time cached = dplus_cache_.load(idx);
  if (cached != AtomicCurveCache::kUnset) {
    obs::bump(g_cache_hit);
    return cached;
  }
  obs::bump(g_cache_miss);
  const Time v = delta_plus_raw(n);  // evaluated before publication; models are pure
  publish(dplus_cache_, idx, v);
  return v;
}

Count EventModel::eta_plus_lazy(Time dt) const {
  if (dt <= 0) return 0;
  return eta_plus_raw(dt);
}

Count EventModel::eta_minus_lazy(Time dt) const {
  if (dt <= 0) return 0;
  return eta_minus_raw(dt);
}

const rtc::CompiledModel& EventModel::ensure_compiled() const {
  return ensure_compiled(rtc::CompileOptions{});
}

const rtc::CompiledModel& EventModel::ensure_compiled(const rtc::CompileOptions& options) const {
  if (const auto* existing = compiled_.load(std::memory_order_acquire)) return *existing;
  auto candidate = rtc::CompiledModel::lower(*this, options);
  const rtc::CompiledModel* expected = nullptr;
  const rtc::CompiledModel* raw = candidate.get();
  // First publication wins and is never replaced: queries may hold the
  // pointer across the CAS, so a published form must live as long as the
  // node.  The losing candidate was never visible and is safe to discard.
  if (compiled_.compare_exchange_strong(expected, raw, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    (void)candidate.release();
    return *raw;
  }
  return *expected;
}

double EventModel::long_run_rate() const {
  const double cached = rate_.load(std::memory_order_relaxed);
  if (cached >= 0.0) return cached;
  const double r = long_run_rate_raw();
  rate_.store(r, std::memory_order_relaxed);
  return r;
}

double EventModel::long_run_rate_raw() const {
  g_rate_fallbacks.add(1);
  return hem::long_run_rate(*this);
}

double long_run_rate(const EventModel& model, Time horizon) {
  const Count n = model.eta_plus(horizon);
  if (is_infinite_count(n)) return std::numeric_limits<double>::infinity();
  return static_cast<double>(n) / static_cast<double>(horizon);
}

Count EventModel::eta_plus_raw(Time dt) const {
  // eq. (1): eta+(dt) = max [ { n >= 2 | delta-(n) < dt } U { 1 } ].
  if (delta_min(2) >= dt) return 1;
  // Galloping search for the first n with delta-(n) >= dt.
  Count lo = 2;  // delta-(lo) < dt invariant
  Count hi = 4;
  while (hi <= kEtaSearchCeiling && delta_min(hi) < dt) {
    lo = hi;
    hi *= 2;
  }
  if (hi > kEtaSearchCeiling) return kCountInfinity;
  // Binary search: find largest n in [lo, hi) with delta-(n) < dt.
  while (lo + 1 < hi) {
    const Count mid = lo + (hi - lo) / 2;
    if (delta_min(mid) < dt)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

Count EventModel::eta_minus_raw(Time dt) const {
  // eq. (2): eta-(dt) = min { n >= 0 | delta+(n + 2) > dt }.
  if (delta_plus(2) > dt) return 0;
  // Galloping search for the first n with delta+(n + 2) > dt.
  Count lo = 0;  // delta+(lo + 2) <= dt invariant
  Count hi = 2;
  while (hi <= kEtaSearchCeiling && delta_plus(hi + 2) <= dt) {
    lo = hi;
    hi *= 2;
  }
  if (hi > kEtaSearchCeiling) return kCountInfinity;
  while (lo + 1 < hi) {
    const Count mid = lo + (hi - lo) / 2;
    if (delta_plus(mid + 2) <= dt)
      lo = mid;
    else
      hi = mid;
  }
  return hi;
}

bool models_equal(const EventModel& a, const EventModel& b, Count n_max) {
  // Nodes are immutable, so pointer identity implies equality; the sample
  // loop below exits on the first mismatch and reads memoised delta values
  // on nodes that were queried before.
  if (&a == &b) return true;
  for (Count n = 2; n <= n_max; ++n) {
    if (a.delta_min(n) != b.delta_min(n)) return false;
    if (a.delta_plus(n) != b.delta_plus(n)) return false;
  }
  return true;
}

}  // namespace hem
