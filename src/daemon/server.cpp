#include "daemon/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "daemon/protocol.hpp"
#include "exec/journal.hpp"
#include "exec/supervisor.hpp"
#include "model/textual_config.hpp"
#include "obs/obs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define HEM_DAEMON_POSIX 1
#else
#define HEM_DAEMON_POSIX 0
#endif

namespace hem::daemon {

namespace {

using steady = std::chrono::steady_clock;

obs::Counter& g_submitted = obs::registry().counter("daemon.submitted");
obs::Counter& g_rej_overloaded = obs::registry().counter("daemon.rejected_overloaded");
obs::Counter& g_rej_quota = obs::registry().counter("daemon.rejected_quota");
obs::Counter& g_rej_too_large = obs::registry().counter("daemon.rejected_too_large");
obs::Counter& g_rej_draining = obs::registry().counter("daemon.rejected_draining");
obs::Counter& g_jobs_done = obs::registry().counter("daemon.jobs_done");
obs::Counter& g_jobs_failed = obs::registry().counter("daemon.jobs_failed");
obs::Counter& g_jobs_cancelled = obs::registry().counter("daemon.jobs_cancelled");
obs::Counter& g_jobs_abandoned = obs::registry().counter("daemon.jobs_abandoned");
obs::Counter& g_disconnect_cancels = obs::registry().counter("daemon.disconnect_cancels");
obs::Counter& g_journal_hits = obs::registry().counter("daemon.journal_hits");
obs::Counter& g_jobs_crashed = obs::registry().counter("daemon.jobs_crashed");
obs::Counter& g_jobs_poisoned = obs::registry().counter("daemon.jobs_poisoned");
obs::Counter& g_poisoned_rejects = obs::registry().counter("daemon.poisoned_rejects");
obs::Histogram& g_job_ms = obs::registry().histogram("daemon.job_duration_ms");

[[nodiscard]] std::string error_json(const char* code, const std::string& message) {
  return JsonWriter{}.add("ok", false).add("error", code).add("message", message).str();
}

}  // namespace

/// One submitted job.  Immutable identity fields are set at admission;
/// everything below the marker is guarded by Impl::mx.
struct Server::JobRecord {
  std::uint64_t id = 0;
  std::string label;
  std::string client;
  std::uint64_t fingerprint = 0;
  std::string config_text;  ///< moved into the worker context at dispatch
  long budget_ms = 0;
  bool detach = false;       ///< survive the submitting connection
  std::uint64_t conn_id = 0;

  // Guarded by Impl::mx.
  exec::JobState state = exec::JobState::kQueued;
  bool cached = false;  ///< served from the journal, not run
  exec::CancelReason cancel_reason = exec::CancelReason::kNone;
  long duration_ms = 0;
  bool converged = false;
  bool degraded = false;
  std::string message;
  std::vector<std::string> rows;
  exec::JobPool::Handle handle;  ///< set while running
};

namespace {

/// JobPool context payload.  The worker writes `report` and reads the
/// immutable inputs; it never touches the record (whose mutable state
/// belongs to the server mutex).  The scheduler reads `report` only for
/// kFinished slots (the join is the synchronisation point); an abandoned
/// worker's report is never read.
struct DaemonCtx {
  std::shared_ptr<Server::JobRecord> rec;  ///< scheduler-side use only
  std::string config_text;
  std::string label;
  exec::WorkerReport report;
};

/// The analysis path of one submission: parse, then run a cold engine
/// attempt in a forked worker child.  Runs on a pool worker; only touches
/// reference-counted state so an abandoned (detached) worker can never
/// reach freed memory.
///
/// Parsing happens HERE, pre-fork, so a parse error is classified as a
/// plain `failed` job without forking a worker.  The parsed system crosses
/// into the child via fork's memory image; only the serialisable outcome
/// comes back over the pipe.
[[nodiscard]] exec::WorkerReport run_submission(const DaemonCtx& ctx, const ServerOptions& opt,
                                                const exec::AttemptRunner& runner,
                                                const exec::CancelToken& token) {
  cpa::ParsedSystem parsed;
  try {
    std::istringstream in(ctx.config_text);
    parsed = cpa::parse_system_config(in);
  } catch (const std::exception& e) {
    exec::WorkerReport failed;  // parse errors: non-transient failure, nothing forked
    failed.kind = exec::WorkerExit::kResult;
    failed.outcome.message = e.what();
    return failed;
  }
  exec::AttemptOptions aopt;
  aopt.strict = opt.strict;
  aopt.engine_jobs = opt.engine_jobs;
  aopt.max_iterations = opt.max_iterations;
  return runner.run(
      [&](const exec::CancelToken* t) {
        return exec::run_analysis_attempt(parsed, ctx.label, aopt, t);
      },
      token);
}

}  // namespace

#if HEM_DAEMON_POSIX

struct Server::Impl : std::enable_shared_from_this<Server::Impl> {
  explicit Impl(ServerOptions o) : opt(std::move(o)) {}

  ServerOptions opt;

  int listen_fd = -1;
  std::atomic<bool> stopping{false};  ///< teardown began: socket loops must exit

  // ---- run state, guarded by mx -------------------------------------------
  mutable std::mutex mx;
  std::condition_variable cv;  ///< result waiters + shutdown observers
  bool draining = false;
  bool force = false;
  bool run_done = false;  ///< scheduler loop exited
  int exit_code = 0;
  std::uint64_t next_job_id = 1;
  std::map<std::string, std::deque<std::shared_ptr<JobRecord>>> queues;
  std::vector<std::string> rr_order;  ///< round-robin client cursor order
  std::size_t rr_cursor = 0;
  std::size_t total_queued = 0;
  int in_flight = 0;
  std::map<std::string, int> client_active;  ///< queued + running per client
  std::map<std::uint64_t, std::shared_ptr<JobRecord>> jobs;
  std::deque<std::uint64_t> retired;  ///< terminal ids, oldest first (retention)
  /// Worker deaths per config fingerprint.  Seeded from the journal at
  /// startup so quarantine survives daemon restarts.
  exec::CrashLedger ledger;

  // stats
  long submitted = 0, done = 0, failed = 0, cancelled = 0, abandoned = 0;
  long crashed = 0, poisoned = 0, poisoned_rejects = 0;
  long rej_overloaded = 0, rej_quota = 0, rej_too_large = 0, rej_draining = 0;
  long rej_protocol = 0, rej_busy = 0;
  long disconnect_cancels = 0, journal_hits = 0;
  steady::time_point started_at{};

  // ---- components ----------------------------------------------------------
  std::unique_ptr<exec::JobPool> pool;
  std::unique_ptr<exec::Journal> journal;  ///< guarded by jmx
  std::mutex jmx;

  // ---- threads -------------------------------------------------------------
  std::thread scheduler;
  std::thread acceptor;
  struct ConnState {
    int fd = -1;
    std::uint64_t id = 0;
    std::thread th;
    std::atomic<bool> finished{false};
  };
  std::mutex cmx;
  std::map<std::uint64_t, std::unique_ptr<ConnState>> conns;  ///< guarded by cmx
  std::uint64_t next_conn_id = 1;

  // =========================================================================

  void bind_socket() {
    if (opt.socket_path.empty() || opt.socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
      throw std::runtime_error("daemon socket path missing or too long: '" + opt.socket_path +
                               "'");
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) throw std::runtime_error("cannot create daemon socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", opt.socket_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      // A stale socket file from a crashed daemon is the common case; probe
      // it and only steal the address when nothing answers.
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool live =
          probe >= 0 && ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
      if (probe >= 0) ::close(probe);
      if (live) {
        ::close(listen_fd);
        listen_fd = -1;
        throw std::runtime_error("daemon already running on '" + opt.socket_path + "'");
      }
      ::unlink(opt.socket_path.c_str());
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(listen_fd);
        listen_fd = -1;
        throw std::runtime_error("cannot bind daemon socket '" + opt.socket_path + "'");
      }
    }
    if (::listen(listen_fd, 64) != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      ::unlink(opt.socket_path.c_str());
      throw std::runtime_error("cannot listen on daemon socket '" + opt.socket_path + "'");
    }
  }

  void load_journal() {
    if (opt.journal_path.empty()) return;
    journal = std::make_unique<exec::Journal>(opt.journal_path);
    try {
      (void)journal->load();  // torn tails are recovered inside load()
    } catch (const std::exception&) {
      // Availability over history: a wholesale-corrupt journal (foreign
      // header) is set aside (not deleted — it may be inspected) and the
      // daemon starts fresh.
      std::rename(opt.journal_path.c_str(), (opt.journal_path + ".corrupt").c_str());
      journal = std::make_unique<exec::Journal>(opt.journal_path);
    }
    // Rebuild the crash ledger so poisoned configs stay quarantined and a
    // config with one recorded crash keeps its single remaining strike
    // across restarts.
    ledger.seed(*journal);
  }

  // ---- scheduler -----------------------------------------------------------

  void scheduler_loop() {
    while (true) {
      for (const exec::JobPool::Handle& h : pool->wait_terminal(std::chrono::milliseconds(25)))
        finish(h);
      std::unique_lock<std::mutex> lk(mx);
      if (force) {
        fail_queued_for_shutdown_locked();
        lk.unlock();
        pool->cancel_all(exec::CancelReason::kShutdown, /*escalate=*/true);
        drain_in_flight();
        lk.lock();
        exit_code = 6;
        break;
      }
      if (draining && total_queued == 0 && in_flight == 0) {
        exit_code = 0;
        break;
      }
      while (!force && pool->available() && total_queued > 0) dispatch_next_locked();
    }
    {
      std::lock_guard<std::mutex> lk(mx);
      run_done = true;
    }
    cv.notify_all();
  }

  /// Force path: every queued job becomes kCancelled(kShutdown).
  void fail_queued_for_shutdown_locked() {
    for (const auto& [client, q] : queues)
      for (const std::shared_ptr<JobRecord>& rec : q)
        cancel_queued_locked(*rec, exec::CancelReason::kShutdown,
                             "cancelled by forced shutdown");
    queues.clear();
    total_queued = 0;
    cv.notify_all();
  }

  /// Reap until nothing is in flight (force path; abandonment bounds this
  /// by grace_ms per stubborn job).
  void drain_in_flight() {
    while (true) {
      for (const exec::JobPool::Handle& h : pool->wait_terminal(std::chrono::milliseconds(50)))
        finish(h);
      std::lock_guard<std::mutex> lk(mx);
      if (in_flight == 0) return;
    }
  }

  /// Round-robin pick across client queues; dispatch on the pool.
  void dispatch_next_locked() {
    std::shared_ptr<JobRecord> rec;
    for (std::size_t step = 0; step < rr_order.size(); ++step) {
      const std::string& client = rr_order[rr_cursor];
      rr_cursor = (rr_cursor + 1) % rr_order.size();
      auto it = queues.find(client);
      if (it != queues.end() && !it->second.empty()) {
        rec = it->second.front();
        it->second.pop_front();
        if (it->second.empty()) queues.erase(it);
        break;
      }
    }
    if (rec == nullptr) return;  // stale total_queued cannot happen; defensive
    --total_queued;
    rec->state = exec::JobState::kRunning;
    ++in_flight;
    auto ctx = std::make_shared<DaemonCtx>();
    ctx->rec = rec;
    ctx->config_text = std::move(rec->config_text);
    ctx->label = rec->label;
    // The pool thread parses pre-fork, the engine runs in a forked child,
    // and the watchdog's escalation is a true SIGKILL of that child.
    const exec::AttemptRunner runner(
        true, exec::limits_from_budget(rec->budget_ms, opt.worker_memory_mb, opt.worker_stack_mb));
    rec->handle = pool->start(
        rec->label, rec->budget_ms, ctx,
        [ctx, o = opt, runner](const exec::CancelToken& t) {
          ctx->report = run_submission(*ctx, o, runner, t);
        },
        runner.kill_hook());
  }

  void finish(const exec::JobPool::Handle& slot) {
    const auto ctx = std::static_pointer_cast<DaemonCtx>(slot->context);
    const std::shared_ptr<JobRecord>& rec = ctx->rec;
    std::lock_guard<std::mutex> lk(mx);
    --in_flight;
    --client_active[rec->client];
    rec->handle.reset();
    if (slot->phase == exec::JobPool::Slot::kAbandoned) {
      rec->state = exec::JobState::kAbandoned;
      rec->duration_ms = static_cast<long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(steady::now() - slot->started)
              .count());
      rec->message = "watchdog abandoned the job (cancel not honoured within grace period)";
      ++abandoned;
      obs::bump(g_jobs_abandoned);
    } else {
      exec::Verdict verdict = exec::classify(std::move(ctx->report));
      exec::AttemptOutcome& out = verdict.outcome;
      rec->state = verdict.state;
      rec->duration_ms = out.duration_ms;
      rec->converged = out.converged;
      rec->degraded = out.degraded;
      rec->message = out.message;
      obs::observe(g_job_ms, out.duration_ms);
      switch (verdict.state) {
        case exec::JobState::kCrashed:
          // The worker process died (signal, OOM, rlimit); the daemon itself
          // is untouched.  The first crash is reported as-is (the client may
          // resubmit); the ledger spans submissions and daemon restarts.
          ledger.strike(rec->fingerprint);
          if (ledger.poisoned(rec->fingerprint)) {
            rec->state = exec::JobState::kPoisoned;
            rec->message = ledger.poison_message(rec->fingerprint, out.message);
            ++poisoned;
            obs::bump(g_jobs_poisoned);
          } else {
            ++crashed;
            obs::bump(g_jobs_crashed);
          }
          break;
        case exec::JobState::kCancelled:
          rec->cancel_reason = out.cancel_reason;
          ++cancelled;
          obs::bump(g_jobs_cancelled);
          break;
        case exec::JobState::kDone:
          rec->rows = std::move(out.rows);
          ++done;
          obs::bump(g_jobs_done);
          break;
        default:
          ++failed;
          obs::bump(g_jobs_failed);
          break;
      }
    }
    journal_terminal(*rec);
    retire_locked(rec->id);
    cv.notify_all();
  }

  /// Journal a terminal record (daemon jobs are journaled under their
  /// label so the file stays human-readable; the idempotency key is the
  /// fingerprint).
  void journal_terminal(const JobRecord& rec) {
    if (journal == nullptr || rec.cached) return;
    exec::JournalEntry e;
    e.config_path = rec.label;
    e.fingerprint = rec.fingerprint;
    e.status = exec::to_string(rec.state);
    e.attempts = 1;
    e.duration_ms = rec.duration_ms;
    e.degraded = rec.degraded;
    e.rows = rec.rows;
    std::lock_guard<std::mutex> jlock(jmx);
    try {
      journal->add(std::move(e));
    } catch (const std::exception&) {
      // Journal write failure must not take the daemon down; the job's
      // in-memory result is still served.  Disable further writes.
      journal.reset();
    }
  }

  /// Retention: keep at most result_retention terminal records.
  void retire_locked(std::uint64_t id) {
    retired.push_back(id);
    while (retired.size() > opt.result_retention) {
      jobs.erase(retired.front());
      retired.pop_front();
    }
  }

  // ---- connections ---------------------------------------------------------

  void accept_loop() {
    while (!stopping.load(std::memory_order_acquire)) {
      struct pollfd pfd{};
      pfd.fd = listen_fd;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, 250);
      reap_connections(/*all=*/false);
      if (ready <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      bool admitted = false;
      {
        std::lock_guard<std::mutex> lk(cmx);
        if (conns.size() < static_cast<std::size_t>(opt.max_connections)) {
          auto conn = std::make_unique<ConnState>();
          conn->fd = fd;
          conn->id = next_conn_id++;
          ConnState* cp = conn.get();
          auto self = shared_from_this();
          conn->th = std::thread([self, cp] {
            self->connection_loop(*cp);
            cp->finished.store(true, std::memory_order_release);
          });
          conns.emplace(cp->id, std::move(conn));
          admitted = true;
        }
      }
      if (!admitted) {
        // Explicit turn-away outside the lock (the write may block up to
        // io_timeout_ms and must not stall accepted connections).
        {
          std::lock_guard<std::mutex> slk(mx);
          ++rej_busy;
        }
        (void)write_all(fd, error_json("busy", "connection limit reached") + "\n",
                        opt.io_timeout_ms);
        ::close(fd);
      }
    }
    reap_connections(/*all=*/false);
  }

  /// Join finished connection threads; with `all`, join every one (their
  /// sockets must already be shut down so the loops exit).
  void reap_connections(bool all) {
    std::vector<std::unique_ptr<ConnState>> to_join;
    {
      std::lock_guard<std::mutex> lk(cmx);
      for (auto it = conns.begin(); it != conns.end();) {
        if (all || it->second->finished.load(std::memory_order_acquire)) {
          to_join.push_back(std::move(it->second));
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& c : to_join)
      if (c->th.joinable()) c->th.join();
  }

  void connection_loop(ConnState& conn) {
    LineReader reader(conn.fd);
    bool alive = true;
    while (alive && !stopping.load(std::memory_order_acquire)) {
      std::string line;
      const IoStatus st = reader.read_line(line, opt.idle_timeout_ms);
      if (st == IoStatus::kOversize) {
        (void)write_all(conn.fd, error_json("protocol", "request line too long") + "\n",
                        opt.io_timeout_ms);
        break;
      }
      if (st != IoStatus::kOk) break;  // closed, idle/half-open timeout, error
      Request req;
      std::string perr;
      if (!parse_request_line(line, req, perr)) {
        {
          std::lock_guard<std::mutex> lk(mx);
          ++rej_protocol;
        }
        (void)write_all(conn.fd, error_json("protocol", perr) + "\n", opt.io_timeout_ms);
        break;  // cannot trust framing any more
      }
      const std::string response = handle_request(conn, reader, req, alive);
      if (write_all(conn.fd, response + "\n", opt.io_timeout_ms) != IoStatus::kOk) break;
    }
    on_disconnect(conn.id);
    {
      // fd write is cmx-guarded: teardown() walks conns to shutdown() live
      // sockets and must not race the close.
      std::lock_guard<std::mutex> lk(cmx);
      ::shutdown(conn.fd, SHUT_RDWR);
      ::close(conn.fd);
      conn.fd = -1;
    }
  }

  /// Cancel this connection's orphaned jobs (queued or running, not
  /// detached) with CancelReason::kDisconnect.
  void on_disconnect(std::uint64_t conn_id) {
    std::lock_guard<std::mutex> lk(mx);
    // Collect first: retiring a queued job may evict the oldest retained
    // record from `jobs`, which would invalidate a live iterator.
    std::vector<std::shared_ptr<JobRecord>> orphans;
    for (const auto& [id, rec] : jobs)
      if (rec->conn_id == conn_id && !rec->detach &&
          (rec->state == exec::JobState::kQueued || rec->state == exec::JobState::kRunning))
        orphans.push_back(rec);
    for (const std::shared_ptr<JobRecord>& rec : orphans) {
      if (rec->state == exec::JobState::kQueued) {
        remove_from_queue_locked(rec);
        ++disconnect_cancels;
        obs::bump(g_disconnect_cancels);
        cancel_queued_locked(*rec, exec::CancelReason::kDisconnect, "client disconnected");
      } else if (rec->handle != nullptr) {
        ++disconnect_cancels;
        obs::bump(g_disconnect_cancels);
        pool->cancel(rec->handle, exec::CancelReason::kDisconnect, /*escalate=*/true);
      }
    }
    cv.notify_all();
  }

  /// A queued job (already out of its queue) ends kCancelled.
  void cancel_queued_locked(JobRecord& rec, exec::CancelReason reason, const char* message) {
    rec.state = exec::JobState::kCancelled;
    rec.cancel_reason = reason;
    rec.message = message;
    ++cancelled;
    --client_active[rec.client];
    obs::bump(g_jobs_cancelled);
    journal_terminal(rec);
    retire_locked(rec.id);
  }

  void remove_from_queue_locked(const std::shared_ptr<JobRecord>& rec) {
    auto it = queues.find(rec->client);
    if (it == queues.end()) return;
    auto& q = it->second;
    q.erase(std::remove(q.begin(), q.end(), rec), q.end());
    if (q.empty()) queues.erase(it);
    --total_queued;
  }

  // ---- request handling ----------------------------------------------------

  [[nodiscard]] std::string handle_request(ConnState& conn, LineReader& reader,
                                           const Request& req, bool& alive) {
    if (req.verb == "ping") {
      return JsonWriter{}.add("ok", true).add("version", kProtocolVersion).str();
    }
    if (req.verb == "submit") return handle_submit(conn, reader, req, alive);
    if (req.verb == "status") return handle_status(req);
    if (req.verb == "result") return handle_result(req);
    if (req.verb == "cancel") return handle_cancel(req);
    if (req.verb == "stats") return handle_stats();
    if (req.verb == "drain") {
      if (req.get_long("force", 0) == 1)
        request_force();
      else
        request_drain_impl();
      return JsonWriter{}.add("ok", true).add("draining", true).str();
    }
    std::lock_guard<std::mutex> lk(mx);
    ++rej_protocol;
    return error_json("protocol", "unknown verb '" + req.verb + "'");
  }

  [[nodiscard]] std::string handle_submit(ConnState& conn, LineReader& reader,
                                          const Request& req, bool& alive) {
    const long bytes = req.get_long("bytes", -1);
    if (bytes < 0) {
      alive = false;  // framing unknown without a byte count
      return error_json("protocol", "submit requires bytes=<n>");
    }
    if (static_cast<std::size_t>(bytes) > opt.max_frame_bytes) {
      // The payload is not read: close after responding so an oversized
      // flood cannot make the daemon buffer it.
      {
        std::lock_guard<std::mutex> lk(mx);
        ++rej_too_large;
      }
      obs::bump(g_rej_too_large);
      alive = false;
      return error_json("too_large", "config payload of " + std::to_string(bytes) +
                                         " bytes exceeds the " +
                                         std::to_string(opt.max_frame_bytes) + " byte limit");
    }
    std::string body;
    if (reader.read_exact(body, static_cast<std::size_t>(bytes), opt.io_timeout_ms) !=
        IoStatus::kOk) {
      alive = false;
      return error_json("protocol", "config payload truncated");
    }
    const long budget_req = req.get_long("budget_ms", opt.default_budget_ms);
    const long detach_req = req.get_long("detach", 0);
    if (budget_req < 0 || detach_req < 0) return error_json("protocol", "malformed numeric value");
    const long budget = std::min(budget_req == 0 ? opt.default_budget_ms : budget_req,
                                 opt.max_budget_ms);
    const std::uint64_t fp = exec::fingerprint_bytes(body.data(), body.size());
    std::string client = req.get("client");
    if (client.empty()) client = "conn" + std::to_string(conn.id);
    std::string label = req.get("label");
    if (label.empty()) label = "submit:" + exec::fingerprint_hex(fp);

    std::lock_guard<std::mutex> lk(mx);
    if (draining || force) {
      ++rej_draining;
      obs::bump(g_rej_draining);
      return error_json("draining", "daemon is draining, not accepting work");
    }
    // Answered without running: a poisoned config is refused (the same
    // bytes cannot end well), and a journaled completed run of the
    // identical bytes is served from the journal (idempotent resubmission).
    const bool poisoned_fp = ledger.poisoned(fp);
    const exec::JournalEntry* hit = nullptr;
    if (!poisoned_fp && journal != nullptr) {
      std::lock_guard<std::mutex> jlock(jmx);
      hit = journal->find(fp);
      if (hit != nullptr && !hit->completed()) hit = nullptr;
    }
    if (poisoned_fp || hit != nullptr) {
      auto rec = std::make_shared<JobRecord>();
      rec->id = next_job_id++;
      rec->label = label;
      rec->client = client;
      rec->fingerprint = fp;
      rec->conn_id = conn.id;
      rec->detach = detach_req == 1;
      rec->cached = true;
      if (poisoned_fp) {
        rec->state = exec::JobState::kPoisoned;
        rec->message = "poisoned: this config crashed its worker " +
                       std::to_string(ledger.strikes(fp)) + " times; refusing to re-run";
        ++poisoned_rejects;
        obs::bump(g_poisoned_rejects);
      } else {
        rec->state = exec::JobState::kDone;
        rec->converged = true;
        rec->degraded = hit->degraded;
        rec->duration_ms = hit->duration_ms;
        rec->rows = hit->rows;
        ++journal_hits;
        obs::bump(g_journal_hits);
      }
      jobs.emplace(rec->id, rec);
      retire_locked(rec->id);
      return JsonWriter{}
          .add("ok", true)
          .add("id", static_cast<long>(rec->id))
          .add("fingerprint", exec::fingerprint_hex(fp))
          .add("state", exec::to_string(rec->state))
          .add("cached", true)
          .str();
    }
    if (total_queued >= static_cast<std::size_t>(opt.queue_max)) {
      ++rej_overloaded;
      obs::bump(g_rej_overloaded);
      return error_json("overloaded",
                        "queue full (" + std::to_string(opt.queue_max) + " jobs)");
    }
    if (client_active[client] >= opt.client_quota) {
      ++rej_quota;
      obs::bump(g_rej_quota);
      return error_json("quota", "client '" + client + "' already has " +
                                     std::to_string(client_active[client]) +
                                     " jobs queued or running");
    }
    auto rec = std::make_shared<JobRecord>();
    rec->id = next_job_id++;
    rec->label = std::move(label);
    rec->client = client;
    rec->fingerprint = fp;
    rec->config_text = std::move(body);
    rec->budget_ms = budget;
    rec->detach = detach_req == 1;
    rec->conn_id = conn.id;
    jobs.emplace(rec->id, rec);
    if (std::find(rr_order.begin(), rr_order.end(), client) == rr_order.end())
      rr_order.push_back(client);
    queues[client].push_back(rec);
    ++total_queued;
    ++client_active[client];
    ++submitted;
    obs::bump(g_submitted);
    return JsonWriter{}
        .add("ok", true)
        .add("id", static_cast<long>(rec->id))
        .add("fingerprint", exec::fingerprint_hex(fp))
        .add("state", "queued")
        .add("cached", false)
        .add("queue_depth", static_cast<long>(total_queued))
        .str();
  }

  [[nodiscard]] std::string handle_status(const Request& req) {
    const long id = req.get_long("id", -1);
    if (id < 0) return error_json("protocol", "status requires id=<n>");
    std::lock_guard<std::mutex> lk(mx);
    const auto it = jobs.find(static_cast<std::uint64_t>(id));
    if (it == jobs.end())
      return error_json("unknown_id", "no job with id " + std::to_string(id));
    const JobRecord& rec = *it->second;
    return JsonWriter{}
        .add("ok", true)
        .add("id", id)
        .add("state", exec::to_string(rec.state))
        .add("cached", rec.cached)
        .add("queue_depth", static_cast<long>(total_queued))
        .str();
  }

  [[nodiscard]] std::string handle_result(const Request& req) {
    const long id = req.get_long("id", -1);
    if (id < 0) return error_json("protocol", "result requires id=<n>");
    const bool block = req.get_long("wait", 0) == 1;
    const long timeout_ms = std::clamp(req.get_long("timeout_ms", 60'000), 0L, 600'000L);
    std::unique_lock<std::mutex> lk(mx);
    const auto it = jobs.find(static_cast<std::uint64_t>(id));
    if (it == jobs.end())
      return error_json("unknown_id", "no job with id " + std::to_string(id));
    const std::shared_ptr<JobRecord> rec = it->second;
    if (block) {
      cv.wait_for(lk, std::chrono::milliseconds(timeout_ms), [&] {
        return exec::terminal(rec->state) || stopping.load(std::memory_order_acquire);
      });
    }
    if (!exec::terminal(rec->state)) {
      return JsonWriter{}
          .add("ok", true)
          .add("id", id)
          .add("state", exec::to_string(rec->state))
          .str();
    }
    JsonWriter w;
    w.add("ok", true)
        .add("id", id)
        .add("state", exec::to_string(rec->state))
        .add("cached", rec->cached)
        .add("converged", rec->converged)
        .add("degraded", rec->degraded)
        .add("duration_ms", rec->duration_ms)
        .add("warm_seeded", 0);  // reserved hemcpad1 field, always 0
    if (rec->state == exec::JobState::kCancelled)
      w.add("cancel_reason", exec::to_string(rec->cancel_reason));
    if (!rec->message.empty()) w.add("message", rec->message);
    w.add_strings("rows", rec->rows);
    return w.str();
  }

  [[nodiscard]] std::string handle_cancel(const Request& req) {
    const long id = req.get_long("id", -1);
    if (id < 0) return error_json("protocol", "cancel requires id=<n>");
    std::lock_guard<std::mutex> lk(mx);
    const auto it = jobs.find(static_cast<std::uint64_t>(id));
    if (it == jobs.end())
      return error_json("unknown_id", "no job with id " + std::to_string(id));
    const std::shared_ptr<JobRecord> rec = it->second;  // retirement may erase the entry
    if (rec->state == exec::JobState::kQueued) {
      remove_from_queue_locked(rec);
      cancel_queued_locked(*rec, exec::CancelReason::kUser, "cancelled by client");
      cv.notify_all();
    } else if (rec->state == exec::JobState::kRunning && rec->handle != nullptr) {
      pool->cancel(rec->handle, exec::CancelReason::kUser, /*escalate=*/true);
    }
    // Terminal phases: cancel is idempotent, report the state as-is.
    return JsonWriter{}
        .add("ok", true)
        .add("id", id)
        .add("state", exec::to_string(rec->state))
        .str();
  }

  [[nodiscard]] std::string handle_stats() {
    std::lock_guard<std::mutex> lk(mx);
    const long uptime = static_cast<long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(steady::now() - started_at)
            .count());
    return JsonWriter{}
        .add("ok", true)
        .add("version", kProtocolVersion)
        .add("uptime_ms", uptime)
        .add("draining", draining)
        .add("queue_depth", static_cast<long>(total_queued))
        .add("running", static_cast<long>(in_flight))
        .add("pool_width", opt.pool_width)
        .add("submitted", submitted)
        .add("done", done)
        .add("failed", failed)
        .add("cancelled", cancelled)
        .add("abandoned", abandoned)
        .add("crashed", crashed)
        .add("poisoned", poisoned)
        .add("poisoned_rejects", poisoned_rejects)
        .add("watchdog_cancels", pool->watchdog_cancels())
        .add("watchdog_kills", pool->watchdog_kills())
        .add("disconnect_cancels", disconnect_cancels)
        .add("journal_hits", journal_hits)
        .add("rejected_overloaded", rej_overloaded)
        .add("rejected_quota", rej_quota)
        .add("rejected_too_large", rej_too_large)
        .add("rejected_draining", rej_draining)
        .add("rejected_protocol", rej_protocol)
        .add("rejected_busy", rej_busy)
        .str();
  }

  // ---- lifecycle -----------------------------------------------------------

  void request_drain_impl() {
    std::lock_guard<std::mutex> lk(mx);
    draining = true;
    cv.notify_all();
  }

  void request_force() {
    std::lock_guard<std::mutex> lk(mx);
    draining = true;
    force = true;
    cv.notify_all();
  }

  /// Join everything after the scheduler loop has exited.
  void teardown() {
    stopping.store(true, std::memory_order_release);
    cv.notify_all();
    if (acceptor.joinable()) acceptor.join();
    {
      // Wake blocked connection reads so their loops observe `stopping`.
      std::lock_guard<std::mutex> lk(cmx);
      for (auto& [id, conn] : conns)
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    reap_connections(/*all=*/true);
    pool.reset();  // empty by now; destructor is a no-op drain
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    ::unlink(opt.socket_path.c_str());
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_shared<Impl>(options)), options_(std::move(options)) {}

Server::~Server() {
  if (impl_->scheduler.joinable()) {
    impl_->request_force();
    (void)wait();
  }
}

void Server::start() {
  Impl& d = *impl_;
  if (d.scheduler.joinable()) throw std::logic_error("Server::start called twice");
  d.bind_socket();
  try {
    d.load_journal();
    d.pool = std::make_unique<exec::JobPool>(std::max(1, d.opt.pool_width), d.opt.grace_ms);
    d.started_at = steady::now();
    auto self = impl_;
    d.scheduler = std::thread([self] { self->scheduler_loop(); });
    d.acceptor = std::thread([self] { self->accept_loop(); });
  } catch (...) {
    if (d.listen_fd >= 0) {
      ::close(d.listen_fd);
      d.listen_fd = -1;
      ::unlink(d.opt.socket_path.c_str());
    }
    throw;
  }
}

void Server::request_drain() { impl_->request_drain_impl(); }

void Server::request_force_stop() { impl_->request_force(); }

int Server::wait() {
  Impl& d = *impl_;
  if (d.scheduler.joinable()) {
    {
      std::unique_lock<std::mutex> lk(d.mx);
      d.cv.wait(lk, [&] { return d.run_done; });
    }
    d.scheduler.join();
    d.teardown();
  }
  std::lock_guard<std::mutex> lk(d.mx);
  return d.exit_code;
}

bool Server::stopped() const {
  std::lock_guard<std::mutex> lk(impl_->mx);
  return impl_->run_done;
}

#else  // !HEM_DAEMON_POSIX

struct Server::Impl {};

Server::Server(ServerOptions options) : options_(std::move(options)) {}
Server::~Server() = default;
void Server::start() { throw std::runtime_error("hemcpad requires a POSIX platform"); }
void Server::request_drain() {}
void Server::request_force_stop() {}
int Server::wait() { return 0; }
bool Server::stopped() const { return true; }

#endif

}  // namespace hem::daemon
