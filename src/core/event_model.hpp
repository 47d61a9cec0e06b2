#pragma once

/// \file event_model.hpp
/// Abstract event model: the function tuple F = (delta-(n), delta+(n)).
///
/// Following Richter's compositional analysis framework (and section 3 of
/// Rox/Ernst, DATE'08), an event stream is abstracted by four characteristic
/// functions:
///
///   eta+(dt)   - maximum number of events in any time interval of size dt
///   eta-(dt)   - minimum number of events in any time interval of size dt
///   delta-(n)  - minimum distance between the first and last of any
///                n consecutive events (a lower bound)
///   delta+(n)  - maximum distance between the first and last of any
///                n consecutive events (an upper bound)
///
/// eta+ and eta- are derivable from delta- and delta+ via the paper's
/// eqs. (1) and (2):
///
///   eta+(dt) = max_{n >= 2} [ { n | delta-(n) < dt } U { 1 } ]       (1)
///   eta-(dt) = min_{n >= 0}   { n | delta+(n + 2) > dt }             (2)
///
/// hence the library stores F = (delta-, delta+) as the primitive pair and
/// derives the eta functions generically (concrete models may override the
/// derivation with closed forms; consistency is checked by property tests).
///
/// Event models are immutable, shareable nodes: stream operations (OR
/// combination, task output calculation, shaping, packing) produce new nodes
/// referencing their operands, forming a DAG.  Evaluation is lazy and
/// memoised per node, so deeply composed models remain cheap to query.

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/curve_cache.hpp"
#include "core/time.hpp"

namespace hem::rtc {
struct CompileOptions;
class CompiledModel;
}  // namespace hem::rtc

namespace hem {

class EventModel;

/// Shared handle to an immutable event model node.
using ModelPtr = std::shared_ptr<const EventModel>;

/// Abstract base for all event models.
///
/// Derived classes implement `delta_min_raw(n)` / `delta_plus_raw(n)` for
/// n >= 2; the base class fixes the n < 2 boundary (distance between fewer
/// than two events is zero), memoises evaluations, and derives the eta
/// functions.  All query methods are `const`; models must be immutable after
/// construction.
class EventModel {
 public:
  virtual ~EventModel();

  EventModel(const EventModel&) = delete;
  EventModel& operator=(const EventModel&) = delete;

  /// Minimum distance between n consecutive events.  Zero for n < 2.
  /// Non-decreasing in n.  Served from the compiled flat form when the
  /// node has been lowered (see `ensure_compiled`), the lazy memoised DAG
  /// otherwise — the two are bit-identical inside the compiled horizon
  /// (checked by AX12).
  [[nodiscard]] Time delta_min(Count n) const;

  /// Maximum distance between n consecutive events.  Zero for n < 2.
  /// Non-decreasing in n; `kTimeInfinity` when unbounded.
  [[nodiscard]] Time delta_plus(Count n) const;

  /// Maximum number of events in any time interval of size dt (eq. 1).
  /// Returns 0 for dt <= 0 and `kCountInfinity` when the model allows
  /// unbounded bursts within dt.
  [[nodiscard]] Count eta_plus(Time dt) const;

  /// Minimum number of events in any time interval of size dt (eq. 2).
  /// Returns 0 when the stream can be silent for dt (e.g. delta+(2) = inf).
  [[nodiscard]] Count eta_minus(Time dt) const;

  /// The lazy DAG evaluation path, bypassing any compiled form.  Used by
  /// the lowering pass itself, by the compiled-vs-lazy contract checks
  /// (AX12/AX13), and as the baseline arm of the algebra benchmarks.
  [[nodiscard]] Time delta_min_lazy(Count n) const;
  [[nodiscard]] Time delta_plus_lazy(Count n) const;
  [[nodiscard]] Count eta_plus_lazy(Time dt) const;
  [[nodiscard]] Count eta_minus_lazy(Time dt) const;

  /// Lower this node to its flat compiled form (see rtc/compile.hpp) and
  /// cache it on the node.  Idempotent and thread-safe: the first
  /// publication wins and is never replaced, so returned references stay
  /// valid for the node's lifetime; a concurrent loser discards its own
  /// candidate.  Subsequent delta/eta queries consult the compiled form
  /// first and fall back to the lazy DAG beyond its horizon.
  const rtc::CompiledModel& ensure_compiled() const;
  const rtc::CompiledModel& ensure_compiled(const rtc::CompileOptions& options) const;

  /// The cached compiled form, or nullptr when the node was never lowered.
  [[nodiscard]] const rtc::CompiledModel* compiled() const noexcept {
    return compiled_.load(std::memory_order_acquire);
  }

  /// Largest number of events that may occur simultaneously, i.e. the
  /// largest n with delta-(n) == 0.  Used as parameter `k` of the inner
  /// update function (paper Def. 9).  At least 1 for any non-empty stream.
  [[nodiscard]] Count max_simultaneous_events() const { return eta_plus(1); }

  /// Exact long-run event rate lim eta+(dt)/dt in events per tick (the
  /// limiting slope of the arrival curve, HeRTA's utilisation basis);
  /// +infinity when the stream allows unbounded bursts.  eta+ is
  /// subadditive, so by Fekete's lemma the limit is also its infimum:
  /// rate * dt <= eta+(dt) for every dt.  Computed once per node from a
  /// closed form (children's rates for composed nodes) and memoised, so a
  /// query is O(1) after the first.
  [[nodiscard]] double long_run_rate() const;

  /// Human-readable description, used in reports and error messages.
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  EventModel() = default;

  /// delta-(n) for n >= 2 (callee may assume n >= 2).
  [[nodiscard]] virtual Time delta_min_raw(Count n) const = 0;

  /// delta+(n) for n >= 2 (callee may assume n >= 2).
  [[nodiscard]] virtual Time delta_plus_raw(Count n) const = 0;

  /// Override point for closed-form eta+ (dt > 0 guaranteed).
  /// The default performs a galloping + binary search inversion of delta-.
  [[nodiscard]] virtual Count eta_plus_raw(Time dt) const;

  /// Override point for closed-form eta- (dt > 0 guaranteed).
  [[nodiscard]] virtual Count eta_minus_raw(Time dt) const;

  /// Override point for the closed-form long-run rate.  The default has no
  /// closed form: it samples eta+(10^6)/10^6, which over-estimates a bursty
  /// or jittered stream, and counts the call in `engine.rate_fallbacks`.
  [[nodiscard]] virtual double long_run_rate_raw() const;

 private:
  // Dense memoisation of delta values, indexed by n - 2.  Activation DAGs
  // are shared between resources that the CPA engine analyses on concurrent
  // worker threads; the memo tables are lock-free (see curve_cache.hpp) so
  // concurrent queries of one shared node never serialise behind each
  // other.  Raw evaluation happens before publication: models are pure, so
  // two threads racing on the same uncached n compute the same value and
  // the duplicated work is benign.
  mutable AtomicCurveCache dmin_cache_;
  mutable AtomicCurveCache dplus_cache_;

  // Memoised long_run_rate(); negative until first computed.  The rate is a
  // pure function of the node, so racing first computations store the same
  // value.
  mutable std::atomic<double> rate_{-1.0};

  // Flat compiled form (rtc/compile.hpp), owned by the node.  Published
  // once by a first-wins CAS in ensure_compiled(); queries take one acquire
  // load and then touch only immutable arrays.
  mutable std::atomic<const rtc::CompiledModel*> compiled_{nullptr};
};

/// Search ceiling for the generic eta+ inversion.  A well-formed stream's
/// delta-(n) grows without bound; if delta-(n) is still below the queried
/// interval at this n, the stream is treated as allowing unbounded bursts
/// and `kCountInfinity` is returned.
inline constexpr Count kEtaSearchCeiling = Count{1} << 24;

/// Events per tick of a stream whose events are at least `spacing` ticks
/// apart: +infinity at spacing 0, 0 at an infinite spacing.
[[nodiscard]] inline double rate_of_spacing(Time spacing) noexcept {
  if (spacing <= 0) return std::numeric_limits<double>::infinity();
  if (is_infinite(spacing)) return 0.0;
  return 1.0 / static_cast<double>(spacing);
}

/// Sample the long-run event rate of a model as eta+(T)/T over a finite
/// horizon; +infinity when eta+(T) is unbounded.  It over-estimates the
/// exact EventModel::long_run_rate() by up to the stream's burst over T.
/// The report's `utilization` column keeps this 10^6-tick sample so reports
/// stay comparable across versions, and it is the fallback of
/// long_run_rate() for a model without a closed form.
[[nodiscard]] double long_run_rate(const EventModel& model, Time horizon = 1'000'000);

/// Compare two models by sampling both delta curves on n in [2, n_max].
/// Used for CPA fixpoint detection and in tests.
[[nodiscard]] bool models_equal(const EventModel& a, const EventModel& b, Count n_max);

}  // namespace hem
