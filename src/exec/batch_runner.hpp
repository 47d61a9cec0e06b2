#pragma once

/// \file batch_runner.hpp
/// Fleet-scale batch execution of `.hemcpa` analyses: a job queue with
/// cooperative cancellation, a watchdog (soft-cancel -> SIGKILL for
/// isolated workers, hard-abandon as the legacy fallback), per-attempt
/// process isolation (`worker_process.hpp`) with supervised respawn and
/// two-strikes poisoning, retry-with-backoff for transient failures, an
/// exception firewall, crash-safe journaling (`journal.hpp`) with
/// `--resume`, and graceful SIGINT/SIGTERM draining.  Drives
/// `hemcpa --batch`; see docs/robustness.md for the job lifecycle state
/// machine.
///
/// Determinism: per-job analysis results are bit-identical for every
/// worker-pool size (the engine guarantees this per run; the batch layer
/// stores rows per job and emits the merged CSV in manifest order), so the
/// final report does not depend on `--batch-jobs`, `--jobs`, or on whether
/// the batch was interrupted and resumed.

#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/event_model.hpp"
#include "exec/supervisor.hpp"

namespace hem::exec {

struct BatchOptions {
  int parallel_jobs = 1;   ///< concurrently running configs (the pool width)
  int engine_jobs = 0;     ///< CpaEngine worker threads per job; 0 = config/default
  bool strict = false;     ///< force strict mode on every job
  long job_budget_ms = 0;  ///< watchdog per-job wall-clock budget; 0 = none
  long grace_ms = 2000;    ///< soft-cancel -> hard-abandon escalation delay
  int max_retries = 1;     ///< extra attempts for transient failures
  long retry_backoff_ms = 100;  ///< base backoff; multiplied by the attempt number
  int retry_budget_factor = 4;  ///< iteration/time budgets scale by this per retry
  int max_iterations = 64;      ///< global engine iterations (first attempt)
  long engine_budget_ms = 0;    ///< per-attempt engine wall-clock budget; 0 = none
  long fixpoint_max_iterations = 0;  ///< busy-window fixpoint step override; 0 = default
  Time fixpoint_max_window = 0;      ///< busy-window length override; 0 = default
  std::string journal_path;          ///< empty = journaling disabled
  bool resume = false;               ///< skip configs already terminal in the journal
  bool isolate = true;               ///< run each attempt in a forked worker process
  long worker_memory_mb = 0;   ///< per-worker RLIMIT_AS cap in MiB; 0 = inherit
  long worker_stack_mb = 0;    ///< per-worker RLIMIT_STACK cap in MiB; 0 = inherit
  long crash_backoff_ms = 250;  ///< respawn delay after a worker crash (doubles per crash)
};

// JobState (lifecycle, journal status names) and the crash ledger behind
// two-strikes poisoning live in supervisor.hpp, shared with the daemon.
// Here transient failures loop back through kRunning until the retry
// budget is spent, and jobs interrupted by shutdown return to kQueued
// unjournaled, so --resume re-runs them.

/// Terminal record of one config's journey through the batch.
struct JobResult {
  std::string path;               ///< config path as listed
  std::uint64_t fingerprint = 0;  ///< config content stamp (0 = unreadable)
  JobState state = JobState::kQueued;
  int attempts = 0;        ///< analysis attempts actually executed (0 if skipped)
  long duration_ms = 0;    ///< wall clock of the terminal attempt
  bool degraded = false;   ///< report carried fallback bounds
  bool converged = false;  ///< global fixpoint reached
  bool transient = false;  ///< last failure was a retryable cause
  bool from_journal = false;  ///< restored by --resume, not executed this run
  std::string message;        ///< human-readable failure/cancel detail
  std::vector<std::string> rows;  ///< merged-CSV data rows (config column included)
};

struct BatchReport {
  std::vector<JobResult> jobs;  ///< manifest order, one entry per config
  bool interrupted = false;     ///< a shutdown request drained the batch
  long watchdog_cancels = 0;
  long abandoned = 0;
  long retries = 0;
  long journal_skips = 0;
  long crash_respawns = 0;  ///< worker crashes that earned a supervised respawn
  long poisoned = 0;        ///< configs quarantined after crashing twice

  /// Batch exit-code precedence (documented in README and
  /// docs/robustness.md): 6 interrupted > 5 failed/cancelled/abandoned/
  /// crashed/poisoned jobs > 4 degraded-but-complete > 0 clean.  Usage
  /// errors (3) never reach a report.
  [[nodiscard]] int exit_code() const;

  /// Merged CSV: `config,task,...` header, then per config (manifest
  /// order) either its report rows or one `-`-filled placeholder row
  /// carrying the job state.  Byte-identical across interruption/resume
  /// and for every jobs value.
  void write_csv(std::ostream& os) const;

  /// One-line-per-job progress summary plus totals.
  void write_summary(std::ostream& os) const;
};

/// Runs a list of configs to terminal states.  Construct once, call run()
/// once.
class BatchRunner {
 public:
  BatchRunner(std::vector<std::string> configs, BatchOptions options);

  /// Execute the batch.  `shutdown_flag` (usually set by a SIGINT/SIGTERM
  /// handler) is polled by the scheduler: once non-zero, queued jobs stay
  /// queued, running jobs are cancelled with CancelReason::kShutdown and
  /// drained, the journal is flushed, and the report comes back with
  /// `interrupted = true`.  `log` (optional) receives progress lines.
  [[nodiscard]] BatchReport run(const volatile std::sig_atomic_t* shutdown_flag = nullptr,
                                std::ostream* log = nullptr);

  /// Expand a batch operand: a directory yields all `*.hemcpa` files in it
  /// (sorted); a manifest file yields one config path per non-comment
  /// line, relative paths resolved against the manifest's directory.
  /// \throws std::invalid_argument when the operand does not exist or a
  ///         directory contains no configs.
  [[nodiscard]] static std::vector<std::string> collect_configs(const std::string& dir_or_manifest);

 private:
  std::vector<std::string> configs_;
  BatchOptions options_;
  bool ran_ = false;
};

}  // namespace hem::exec
