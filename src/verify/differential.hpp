#pragma once

/// \file differential.hpp
/// Differential verification oracles: each oracle cross-checks two
/// *independent* computations of the same truth about one system, so a bug
/// in either computation surfaces as a disagreement instead of silently
/// producing optimistic bounds.  This is the library core of the `hemfuzz`
/// driver (tools/hemfuzz.cpp) and the executable form of the paper's
/// conservativeness claim — every HEM bound must dominate any trace the
/// modeled system can produce.
///
/// Built-in oracle families (OracleRegistry::with_builtin_oracles):
///
///   dominance     analysis WCRT/backlog bounds vs src/sim observed maxima,
///                 plus trace_check conformance of observed activation and
///                 completion traces against the analytic stream models
///   determinism   report fingerprints bit-identical across jobs=1 vs
///                 jobs=N and incremental on vs off
///   compilation   compiled-curve vs lazy-DAG delta/eta identity (random
///                 probes beyond the AX12 bend points) plus a full
///                 ModelChecker AX1-AX13 sweep over every per-task model
///   degradation   graceful-mode bounds dominate strict-mode results
///                 whenever strict converges; strict failures imply a
///                 degraded graceful report; hemlint HL001 fires iff the
///                 engine diagnoses resource overload (guard-banded around
///                 load == 1 where the two load estimators may round apart)
///
/// Findings are value types carrying a *stable* fingerprint: the same
/// violation on the same system buckets identically across runs and
/// processes (fingerprints never embed pointers, timings, or iteration
/// counts), which is what makes hemfuzz's failure bucketing and the ddmin
/// shrinker's "still the same bug" predicate work.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "model/analysis_report.hpp"
#include "model/system.hpp"

namespace hem::verify {

/// Tuning knobs shared by all oracles.
struct DiffOptions {
  Time sim_horizon = 100'000;     ///< simulated ticks for the dominance oracle
  std::uint64_t sim_seed = 1;     ///< simulator + probe RNG seed
  int wide_jobs = 8;              ///< parallel arm of the determinism oracle
  Count checker_horizon = 32;     ///< ModelChecker horizon (compilation oracle)
  int probe_points = 24;          ///< random compiled-vs-lazy probes per model
  int max_iterations = 64;        ///< engine iteration budget for every run
};

/// One oracle violation.
struct OracleFinding {
  std::string oracle;       ///< oracle family name ("dominance", ...)
  std::string fingerprint;  ///< stable within-oracle failure key ("wcrt:T3")
  std::string detail;       ///< human-readable explanation with values

  /// Stable bucket id: FNV-1a of "<oracle>/<fingerprint>".  Deterministic
  /// across runs and processes by construction.
  [[nodiscard]] std::uint64_t bucket() const;
};

/// An oracle that could not examine an input, and why (e.g. a stimulus the
/// simulator cannot generate).  Not a finding: no computation disagreed.
struct OracleSkip {
  std::string oracle;
  std::string reason;
};

/// Thrown from Oracle::check to skip the input; OracleRegistry::run records
/// it as an OracleSkip carrying what().
class OracleSkipped : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What the oracles examine.  `config_text` is optional: when empty, checks
/// that need the textual form (the HL001/hemlint cross-check) are skipped —
/// hemfuzz uses this for injected-fault runs where the text no longer
/// describes the mutated in-memory system.
struct DiffInput {
  const cpa::System* system = nullptr;
  std::string config_text;
};

/// One differential oracle.  Implementations must be deterministic: same
/// input + same options => same findings in the same order.
class Oracle {
 public:
  virtual ~Oracle() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void check(const DiffInput& in, const DiffOptions& opts,
                     std::vector<OracleFinding>& out) const = 0;
};

/// Ordered collection of oracles.  `run` executes every oracle, converting
/// an escaped exception into an "exception"-fingerprint finding for that
/// oracle (HEM_VERIFY contract violations on deliberately broken models
/// arrive this way) so one failing oracle never hides the others' verdicts.
/// An OracleSkipped exception is no finding: it is appended to `skips`
/// (when given) so callers can count what went unchecked.
class OracleRegistry {
 public:
  /// Registry with the four built-in oracle families, in a fixed order:
  /// dominance, determinism, compilation, degradation.
  [[nodiscard]] static OracleRegistry with_builtin_oracles();

  void add(std::unique_ptr<Oracle> oracle);

  [[nodiscard]] std::vector<OracleFinding> run(const DiffInput& in, const DiffOptions& opts,
                                               std::vector<OracleSkip>* skips = nullptr) const;

  /// Registered oracle by name, or nullptr.
  [[nodiscard]] const Oracle* find(std::string_view name) const;

  [[nodiscard]] const std::vector<std::unique_ptr<Oracle>>& oracles() const noexcept {
    return oracles_;
  }

 private:
  std::vector<std::unique_ptr<Oracle>> oracles_;
};

/// FNV-1a 64-bit hash (stable across platforms and runs).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data);

/// Order-sensitive fingerprint of everything result-relevant in a report:
/// per-task names, statuses, response/backlog bounds, utilization bit
/// patterns, short delta-curve samples of the activation and output models,
/// global convergence, and all diagnostics.  Deliberately excludes
/// EngineStats and every iteration count (global and per-diagnostic): work
/// counters legitimately vary with jobs/incremental settings while results
/// must not.
[[nodiscard]] std::uint64_t report_fingerprint(const cpa::AnalysisReport& report);

/// Known deliberately-broken model kinds for self-tests of the harness
/// (mirroring the BrokenModel/BrokenCompileModel mocks in tests/verify):
/// "ax1" (delta- decreasing), "ax3" (delta- above delta+), "eta-plus"
/// (non-monotone closed-form eta+), "compile-eta" (lazy eta disagreeing
/// with its own delta curves, AX12), "compile-dmin" / "compile-dplus"
/// (sub/superadditive curves the lowering cannot bound, AX13).
[[nodiscard]] const std::vector<std::string>& broken_model_kinds();

/// One shared instance of the given broken kind.
/// \throws std::invalid_argument for unknown kinds.
[[nodiscard]] ModelPtr make_broken_model(const std::string& kind);

/// Replace every external event-model node of `system` (external
/// activations, packed sources, pack timers) with ONE shared broken node of
/// the given kind.  Sharing a single node keeps the memoisation footprint
/// of pathological curves bounded.  Returns the number of replaced nodes.
int inject_broken_models(cpa::System& system, const std::string& kind);

}  // namespace hem::verify
