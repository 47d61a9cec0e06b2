#pragma once

/// \file server.hpp
/// The analysis daemon (`hemcpad`): a Unix-domain-socket server that runs
/// each submitted configuration as a cold engine attempt in a forked worker
/// process, dispatched from a shared exec::JobPool.
///
/// Robustness model (see docs/daemon.md for the full contract):
///   * Admission control — a bounded global queue and a per-client quota;
///     over-limit submissions are rejected explicitly (`overloaded`,
///     `quota`), oversized payloads with `too_large`, submissions during a
///     drain with `draining`.  Accepted or rejected, every request gets
///     exactly one response: the daemon never sheds load by hanging.
///   * Fair queueing — one FIFO per client, dispatched round-robin, so a
///     flood from one client cannot starve the others.
///   * Deadlines — every job carries a wall-clock budget enforced by the
///     pool's watchdog: soft-cancel (CancelReason::kWatchdog) at the
///     budget, SIGKILL of the worker process after the grace period.
///   * Disconnect detection — jobs whose connection vanishes are cancelled
///     with CancelReason::kDisconnect (unless submitted with detach=1).
///   * Slow peers — all socket I/O is poll()-gated; a half-open or
///     non-draining peer times out and only its own connection closes.
///   * Idempotent resubmission — terminal results are journaled
///     (exec::Journal, same format as `hemcpa --batch`) keyed by config
///     fingerprint; resubmitting an already-analysed config returns the
///     stored result (`"cached":true`) without re-running.
///   * Process isolation — every analysis runs in a forked, rlimit-capped
///     worker process (exec::WorkerProcess).  A config that
///     segfaults, aborts, or blows its memory budget becomes a `crashed`
///     job result carrying the signal; the daemon itself never dies.  A
///     config whose workers crash twice is quarantined (`poisoned`):
///     journaled, counted, and every later submission of the identical
///     bytes is refused without running — across daemon restarts, because
///     the crash ledger is rebuilt from the journal.  Job states, the
///     ledger and crash classification come from exec/supervisor.hpp,
///     shared with `hemcpa --batch`.
///   * Graceful drain — request_drain() (SIGTERM, or the `drain` verb)
///     stops admission, finishes queued and running jobs, and run() exits
///     with code 0; request_force_stop() (second SIGTERM) cancels
///     everything and exits with code 6, matching the batch exit table.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "exec/analysis_attempt.hpp"
#include "exec/cancel.hpp"
#include "exec/job_pool.hpp"

namespace hem::daemon {

struct ServerOptions {
  std::string socket_path;          ///< Unix-domain socket to bind
  int pool_width = 2;               ///< concurrently running analyses
  long grace_ms = 2000;             ///< soft-cancel -> hard-abandon delay
  long default_budget_ms = 30'000;  ///< per-job deadline when the client sets none
  long max_budget_ms = 300'000;     ///< cap on client-requested budgets
  int queue_max = 64;               ///< global queued-job bound (admission control)
  int client_quota = 8;             ///< max queued+running jobs per client
  int max_connections = 64;         ///< concurrent connections before turn-away
  std::size_t max_frame_bytes = 1 << 20;  ///< config payload cap (`too_large` above)
  long io_timeout_ms = 5000;        ///< per-step socket read/write budget
  long idle_timeout_ms = 30'000;    ///< close connections idle this long
  std::size_t result_retention = 256;  ///< completed job records kept for `result`
  std::string journal_path;         ///< terminal-result journal; empty = disabled
  bool strict = false;              ///< force strict mode on every job
  int engine_jobs = 0;              ///< CpaEngine threads per job; 0 = config/default
  int max_iterations = 64;          ///< global engine iterations per job
  long worker_memory_mb = 0;   ///< per-worker RLIMIT_AS cap in MiB; 0 = inherit
  long worker_stack_mb = 0;    ///< per-worker RLIMIT_STACK cap in MiB; 0 = inherit
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Force-stops and tears everything down if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket, load the journal, spawn the accept and scheduler
  /// threads.  \throws std::runtime_error when the socket cannot be bound
  /// or the journal path cannot be written.
  void start();

  /// Stop admitting work, finish queued and running jobs, then shut down
  /// with exit code 0.  Idempotent.
  void request_drain();

  /// Cancel queued and running jobs (CancelReason::kShutdown, escalating)
  /// and shut down with exit code 6.  Idempotent; overrides a drain.
  void request_force_stop();

  /// Block until the server has shut down (via drain, force-stop, or the
  /// client `drain` verb) and teardown finished.  Returns the exit code:
  /// 0 = clean drain, 6 = forced.
  [[nodiscard]] int wait();

  [[nodiscard]] bool stopped() const;
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }

  struct Impl;
  struct JobRecord;

 private:
  std::shared_ptr<Impl> impl_;  ///< shared with server threads
  ServerOptions options_;
};

}  // namespace hem::daemon
