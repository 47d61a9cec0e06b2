#pragma once

/// \file analysis_attempt.hpp
/// One analysis attempt behind an exception firewall, shared between the
/// batch runner (`hemcpa --batch`) and the analysis daemon (`hemcpad`).
///
/// Whatever a configuration does — overload in strict mode, a
/// ContractViolation out of the model algebra, std::bad_alloc, a
/// cooperative cancel — comes back as an AttemptOutcome, never as an
/// escaped exception.  Parsing stays with the caller (the batch reads
/// files, the daemon parses request bodies at admission time) so a parse
/// error can be classified there; this layer turns a *parsed* system into
/// classified results.

#include <memory>
#include <string>
#include <vector>

#include "core/event_model.hpp"
#include "exec/cancel.hpp"

namespace hem::cpa {
struct ParsedSystem;
struct AnalysisReport;
}  // namespace hem::cpa

namespace hem::exec {

struct AttemptOptions {
  bool strict = false;      ///< force strict mode (OR-ed with the config's option)
  int engine_jobs = 0;      ///< CpaEngine worker threads; 0 = config option or 1
  int max_iterations = 64;  ///< global engine iterations for this attempt
  long wall_budget_ms = 0;  ///< engine wall-clock budget; 0 = none
  long fixpoint_max_iterations = 0;  ///< busy-window step override; 0 = default
  Time fixpoint_max_window = 0;      ///< busy-window length override; 0 = default
  bool keep_report = false;  ///< retain the full AnalysisReport in the outcome
};

/// Classified result of one attempt.  Exactly one of ok / cancelled /
/// "failed" (neither flag) holds; `transient` marks failures a retry with
/// bigger budgets may fix.
struct AttemptOutcome {
  bool ok = false;         ///< converged report, rows valid
  bool degraded = false;   ///< report carried fallback bounds
  bool converged = false;  ///< global fixpoint reached
  bool cancelled = false;
  bool transient = false;  ///< retry may succeed with raised budgets
  CancelReason cancel_reason = CancelReason::kNone;
  long duration_ms = 0;
  std::string message;            ///< human-readable failure/cancel detail
  std::vector<std::string> rows;  ///< merged-CSV rows, `label` as config column
  std::shared_ptr<const cpa::AnalysisReport> report;  ///< keep_report only
};

/// Run one engine attempt over `parsed`.  `label` becomes the CSV config
/// column (the batch passes the config path, the daemon the submission
/// name).  Never throws.
[[nodiscard]] AttemptOutcome run_analysis_attempt(const cpa::ParsedSystem& parsed,
                                                  const std::string& label,
                                                  const AttemptOptions& options,
                                                  const CancelToken* cancel);

}  // namespace hem::exec
