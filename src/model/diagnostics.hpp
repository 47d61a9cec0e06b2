#pragma once

/// \file diagnostics.hpp
/// Structured diagnostics and degraded-mode fallback machinery for the
/// global analysis.
///
/// Instead of aborting on the first overloaded resource or diverging
/// fixpoint, the engine (in its default graceful mode) records a
/// `Diagnostic` per failing entity in a `DiagnosticSink`, substitutes a
/// conservative fallback bound, and keeps analysing the rest of the system.
/// Two fallback building blocks live here:
///
///   * `SporadicEnvelopeModel` - the maximally conservative output stream of
///     a task whose response time could not be bounded: events keep a
///     minimum spacing (consecutive completions of one task are at least its
///     best-case response apart) but carry no arrival guarantee, i.e.
///     delta+ = infinity - exactly the pending-signal semantics of the
///     paper's eq. (8).
///   * `utilization_wcrt_envelope` - a HeRTA-style closed-form response-time
///     envelope for work-conserving resources, sound whenever the sampled
///     utilisation stays below 1 even if the exact busy-window fixpoint was
///     not computable within budget.

#include <string>
#include <vector>

#include "core/event_model.hpp"

namespace hem::cpa {

/// How bad a diagnostic is.
enum class Severity {
  kInfo,     ///< informational note, analysis unaffected
  kWarning,  ///< bounds valid but conservative (e.g. degraded upstream)
  kError,    ///< a local analysis failed; fallback bounds substituted
};

/// What went wrong (or what was degraded).
enum class DiagCode {
  kResourceOverload,     ///< long-run load of a resource exceeds 1
  kBusyWindowDivergence, ///< busy window exceeded FixpointLimits::max_window
  kBusyWindowBudget,     ///< fixpoint iteration/time budget exhausted locally
  kGlobalIterationLimit, ///< no global fixpoint within EngineOptions::max_iterations
  kWallClockBudget,      ///< EngineOptions::wall_clock_budget_ms exhausted
  kUnresolvedActivation, ///< activation never bootstrapped (dependency cycle)
  kInnerUpdateUnbounded, ///< HEM inner update undefined (unbounded simultaneity)
  kDegradedUpstream,     ///< a producer's bounds are fallback values
};

[[nodiscard]] const char* to_string(Severity s) noexcept;
[[nodiscard]] const char* to_string(DiagCode c) noexcept;

/// One structured finding of an analysis run.
struct Diagnostic {
  Severity severity = Severity::kInfo;
  DiagCode code = DiagCode::kDegradedUpstream;
  std::string entity;   ///< offending task/resource name ("system" for global)
  std::string detail;   ///< human-readable explanation
  int iteration = 0;    ///< global iteration during which it was (last) raised
};

/// Ordered collection of diagnostics.  Reporting the same (code, entity)
/// pair again replaces the earlier record (keeping first-seen order), so
/// re-detection across global iterations does not pile up duplicates.
class DiagnosticSink {
 public:
  void report(Diagnostic d);

  [[nodiscard]] const std::vector<Diagnostic>& entries() const noexcept { return entries_; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] bool has_errors() const { return count(Severity::kError) > 0; }

  /// Aligned text listing, one line per diagnostic.
  [[nodiscard]] std::string format() const;

 private:
  std::vector<Diagnostic> entries_;
};

/// Fallback output stream of a task without a finite response-time bound:
/// delta-(n) = (n-1) * spacing, delta+(n) = infinity (paper eq. 8, the
/// pending-signal shape).  `spacing` may be zero when not even a minimum
/// completion distance is known.
class SporadicEnvelopeModel final : public EventModel {
 public:
  explicit SporadicEnvelopeModel(Time spacing);

  [[nodiscard]] Time spacing() const noexcept { return spacing_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  Time spacing_;
};

/// One task's contribution to the fallback envelope of its resource.
struct EnvelopeTask {
  ModelPtr activation;  ///< resolved activation stream
  Time wcet = 0;        ///< worst-case execution/transmission time C+
};

/// Closed-form worst-case response-time envelope for a work-conserving
/// resource (SPP / CAN / EDF / round-robin), usable when the exact
/// busy-window fixpoint is unavailable.  Subadditivity of eta+ gives
/// eta+(dt) <= ceil(dt / H) * eta+(H), so total demand over any window dt is
/// at most D + dt * D / H with D = sum_i C+_i * eta+_i(H); if D < H the
/// busy period - and hence every response time - is bounded by
///
///     L* = ceil( D * H / (H - D) ).
///
/// Returns kTimeInfinity when the sampled demand reaches the horizon
/// (overload) or any activation allows unboundedly many events in H.
[[nodiscard]] Time utilization_wcrt_envelope(const std::vector<EnvelopeTask>& tasks,
                                             Time horizon = 200'000);

}  // namespace hem::cpa
