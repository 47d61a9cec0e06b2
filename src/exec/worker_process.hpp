#pragma once

/// \file worker_process.hpp
/// Out-of-process analysis sandbox: one forked child per attempt.
///
/// `WorkerProcess::run` forks, applies `setrlimit` caps in the child, runs
/// the caller's firewalled attempt there, and ships the `AttemptOutcome`
/// back over a pipe as one length-prefixed frame.  The parent classifies
/// whatever the child did:
///
///   * clean exit + complete frame            -> kResult (the outcome)
///   * SIGSEGV / SIGABRT / SIGBUS / nonzero   -> kCrashed (signal recorded)
///   * SIGXCPU / unexplained SIGKILL (OOM)    -> kResourceExhausted
///   * SIGKILL sent via kill() / cancel token -> kKilled (cancelled outcome)
///   * fork or pipe failure                   -> kSpawnFailed (nothing ran)
///
/// A crash therefore becomes a structured job status — never the death of
/// the batch scheduler or the daemon.  The parent polls the cancel token
/// while it waits, so for isolated jobs "cancel" means SIGKILL + reap: no
/// grace window, no detached thread, no `std::_Exit` at process end.
///
/// Only the data members of AttemptOutcome that serialise cross the pipe
/// (flags, reason, duration, message, rows); `report` holds live model-DAG
/// pointers and stays child-local.
///
/// Fork-safety: the child is forked from a multithreaded parent, so it must
/// not depend on locks other parent threads may have held at fork time.
/// glibc re-initialises its allocator locks across fork; the child
/// additionally drops the obs tracer/counters (their sinks belong to the
/// parent) and terminates with `_exit`, never running parent-registered
/// atexit handlers.

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "exec/analysis_attempt.hpp"
#include "exec/cancel.hpp"

namespace hem::exec {

/// Hard resource caps applied in the child before the attempt runs.
/// A zero field inherits the parent's limit.
struct WorkerLimits {
  long long memory_bytes = 0;  ///< RLIMIT_AS: overcommit becomes bad_alloc / OOM-crash
  long cpu_seconds = 0;        ///< RLIMIT_CPU: runaway spin becomes SIGXCPU
  long long stack_bytes = 0;   ///< RLIMIT_STACK: runaway recursion becomes SIGSEGV
};

/// How the child ended, from the parent's point of view.
enum class WorkerExit {
  kResult,             ///< exit 0 with a complete outcome frame
  kCrashed,            ///< fatal signal, nonzero exit, or torn result frame
  kResourceExhausted,  ///< SIGXCPU, or a SIGKILL this process did not send (kernel OOM)
  kKilled,             ///< killed by kill() / the cancel token; outcome synthesised
  kSpawnFailed,        ///< fork()/pipe() failed; the attempt never started
};

[[nodiscard]] const char* to_string(WorkerExit e) noexcept;

/// Classified child result.  `outcome` is meaningful for kResult (decoded
/// from the frame) and kKilled (synthesised as cancelled); for the failure
/// kinds it carries only the parent-side message and duration.
struct WorkerReport {
  WorkerExit kind = WorkerExit::kSpawnFailed;
  int term_signal = 0;   ///< terminating signal when the child died on one
  int exit_status = 0;   ///< exit code when the child exited
  std::string detail;    ///< human-readable classification for diagnostics
  AttemptOutcome outcome;
};

/// Serialise the pipe-safe subset of an AttemptOutcome (everything except
/// `report`) into the versioned frame payload, and back.
/// `decode_outcome` returns false on a torn or foreign frame.
[[nodiscard]] std::string encode_outcome(const AttemptOutcome& out);
[[nodiscard]] bool decode_outcome(const std::string& bytes, AttemptOutcome& out);

/// One child process per call to run().  The object may outlive the call;
/// kill() is safe from any thread at any time (before the fork it marks the
/// run as cancelled-on-arrival, after reaping it is a no-op) — this is the
/// hook the JobPool watchdog and the chaos harness use.
class WorkerProcess {
 public:
  /// Fork and run `work` in the child under `limits`.  Blocks until the
  /// child is reaped.  `cancel` (optional) is polled every ~20ms; a fired
  /// token SIGKILLs the child and yields kKilled with a cancelled outcome
  /// carrying the token's reason.  On non-POSIX hosts runs `work` inline
  /// (no isolation) and returns kResult.
  [[nodiscard]] WorkerReport run(const std::function<AttemptOutcome()>& work,
                                 const WorkerLimits& limits, const CancelToken* cancel);

  /// SIGKILL the live child (idempotent, thread-safe).  Called before the
  /// fork happens, it makes run() kill the child immediately after spawning.
  void kill() noexcept;

  /// True when real process isolation is available on this platform.
  [[nodiscard]] static bool supported() noexcept;

  /// Pids of every worker child currently alive in this process, for the
  /// chaos harness's kill-storm injector.
  [[nodiscard]] static std::vector<int> live_pids();

 private:
  std::atomic<long> pid_{0};
  std::atomic<bool> kill_requested_{false};
};

/// Map a per-job wall-clock budget and optional memory cap onto child
/// rlimits.  CPU seconds are derived as a generous multiple of the wall
/// budget (the cooperative watchdog remains the primary enforcement; the
/// rlimit is the uncooperative-worker backstop).  Zero budget_ms leaves the
/// CPU unlimited; zero memory_mb / stack_mb inherit.
[[nodiscard]] WorkerLimits limits_from_budget(long budget_ms, long memory_mb,
                                              long stack_mb = 0) noexcept;

}  // namespace hem::exec
