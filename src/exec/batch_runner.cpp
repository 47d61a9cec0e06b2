#include "exec/batch_runner.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exec/analysis_attempt.hpp"
#include "exec/cancel.hpp"
#include "exec/job_pool.hpp"
#include "exec/journal.hpp"
#include "exec/supervisor.hpp"
#include "io/csv.hpp"
#include "model/textual_config.hpp"
#include "obs/obs.hpp"

namespace hem::exec {

namespace {

namespace fs = std::filesystem;
using steady = std::chrono::steady_clock;

obs::Counter& g_jobs_run = obs::registry().counter("batch.jobs_run");
obs::Counter& g_jobs_done = obs::registry().counter("batch.jobs_done");
obs::Counter& g_jobs_failed = obs::registry().counter("batch.jobs_failed");
obs::Counter& g_jobs_cancelled = obs::registry().counter("batch.jobs_cancelled");
obs::Counter& g_jobs_abandoned = obs::registry().counter("batch.jobs_abandoned");
obs::Counter& g_retries = obs::registry().counter("batch.retries");
obs::Counter& g_watchdog_cancels = obs::registry().counter("batch.watchdog_cancels");
obs::Counter& g_journal_skips = obs::registry().counter("batch.journal_skips");
obs::Counter& g_worker_crashes = obs::registry().counter("batch.worker_crashes");
obs::Counter& g_crash_respawns = obs::registry().counter("batch.crash_respawns");
obs::Counter& g_poisoned = obs::registry().counter("batch.poisoned");
obs::Histogram& g_job_ms = obs::registry().histogram("batch.job_duration_ms");

/// Per-dispatch payload carried through JobPool::Slot::context.  The
/// report is written by the worker before it flips its slot to kFinished
/// and read by the scheduler only after joining a finished worker, so no
/// extra locking is needed; an abandoned worker's report is never read.
struct AttemptCtx {
  std::size_t index = 0;
  int attempt = 1;
  WorkerReport report;
};

/// Run one batch attempt: parse the config file, then hand the parsed
/// system to the shared analysis firewall (analysis_attempt.hpp) with the
/// budgets scaled for this attempt number.  Parse/read errors come back as
/// non-transient failures, never as escaped exceptions.
AttemptOutcome attempt_config(const std::string& path, const BatchOptions& opt, int attempt,
                              const CancelToken* token) {
  AttemptOutcome out;
  const auto t0 = steady::now();
  obs::Span span("batch", [&] { return "job:" + path; });
  span.arg("attempt", static_cast<long>(attempt));
  try {
    cpa::ParsedSystem parsed = cpa::parse_system_config_file(path);
    // Budgets scale by retry_budget_factor per extra attempt, so a
    // transient budget exhaustion is retried with more headroom.
    long scale = 1;
    for (int i = 1; i < attempt; ++i) scale *= opt.retry_budget_factor;
    AttemptOptions aopt;
    aopt.strict = opt.strict;
    aopt.engine_jobs = opt.engine_jobs;
    aopt.max_iterations = static_cast<int>(
        std::min<long>(static_cast<long>(opt.max_iterations) * scale, 1'000'000));
    if (opt.engine_budget_ms > 0) aopt.wall_budget_ms = opt.engine_budget_ms * scale;
    aopt.fixpoint_max_iterations = opt.fixpoint_max_iterations;
    aopt.fixpoint_max_window = opt.fixpoint_max_window;
    out = run_analysis_attempt(parsed, path, aopt, token);
  } catch (const std::exception& e) {
    out.message = e.what();  // parse / read errors: non-transient failure
  }
  // Wall clock of the full attempt, parse included (the firewall only
  // times the engine).
  out.duration_ms = static_cast<long>(
      std::chrono::duration_cast<std::chrono::milliseconds>(steady::now() - t0).count());
  span.arg("outcome", out.ok          ? "done"
                      : out.cancelled ? "cancelled"
                      : out.transient ? "transient-failure"
                                      : "failed");
  return out;
}

}  // namespace

int BatchReport::exit_code() const {
  if (interrupted) return 6;
  bool failed = false;
  bool degraded_any = false;
  for (const JobResult& j : jobs) {
    failed = failed || (terminal(j.state) && j.state != JobState::kDone);
    degraded_any = degraded_any || (j.state == JobState::kDone && j.degraded);
  }
  if (failed) return 5;
  if (degraded_any) return 4;
  return 0;
}

void BatchReport::write_csv(std::ostream& os) const {
  os << "config,task,resource,bcrt,wcrt,activations,busy_period,utilization,status\n";
  for (const JobResult& j : jobs) {
    if (j.state == JobState::kDone) {
      for (const std::string& row : j.rows) os << row << '\n';
    } else {
      os << io::csv_field(j.path) << ",-,-,-,-,-,-,-," << to_string(j.state) << '\n';
    }
  }
}

void BatchReport::write_summary(std::ostream& os) const {
  std::map<JobState, long> count;
  long degraded_n = 0;
  for (const JobResult& j : jobs) {
    ++count[j.state];
    if (j.state == JobState::kDone && j.degraded) ++degraded_n;
  }
  os << "batch: " << jobs.size() << " configs, " << count[JobState::kDone] << " done";
  if (degraded_n > 0) os << " (" << degraded_n << " degraded)";
  for (const JobState s : {JobState::kFailed, JobState::kCancelled, JobState::kAbandoned,
                           JobState::kCrashed, JobState::kPoisoned})
    if (count[s] > 0) os << ", " << count[s] << ' ' << to_string(s);
  const long queued = count[JobState::kQueued] + count[JobState::kRunning];
  if (queued > 0) os << ", " << queued << " not run";
  if (journal_skips > 0) os << ", " << journal_skips << " restored from journal";
  if (retries > 0) os << ", " << retries << " retries";
  if (crash_respawns > 0) os << ", " << crash_respawns << " crash respawns";
  if (watchdog_cancels > 0) os << ", " << watchdog_cancels << " watchdog cancels";
  if (interrupted) os << " [interrupted]";
  os << '\n';
}

BatchRunner::BatchRunner(std::vector<std::string> configs, BatchOptions options)
    : configs_(std::move(configs)), options_(std::move(options)) {}

std::vector<std::string> BatchRunner::collect_configs(const std::string& dir_or_manifest) {
  std::error_code ec;
  if (fs::is_directory(dir_or_manifest, ec)) {
    std::vector<std::string> configs;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_or_manifest)) {
      if (entry.is_regular_file() && entry.path().extension() == ".hemcpa")
        configs.push_back(entry.path().string());
    }
    if (configs.empty())
      throw std::invalid_argument("batch directory '" + dir_or_manifest +
                                  "' contains no .hemcpa configs");
    std::sort(configs.begin(), configs.end());
    return configs;
  }
  std::ifstream in(dir_or_manifest);
  if (!in) {
    // Distinguish "you typo'd the path" from "the file is there but cannot
    // be opened" so the usage error (exit 3) tells the user what to fix.
    std::error_code exists_ec;
    if (!fs::exists(dir_or_manifest, exists_ec))
      throw std::invalid_argument("batch operand '" + dir_or_manifest +
                                  "' does not exist (expected a directory of .hemcpa configs "
                                  "or a manifest file listing one config path per line)");
    throw std::invalid_argument("batch manifest '" + dir_or_manifest +
                                "' exists but cannot be opened for reading "
                                "(check file permissions)");
  }
  const fs::path base = fs::path(dir_or_manifest).parent_path();
  std::vector<std::string> configs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line_no == 1 && line.rfind("\xEF\xBB\xBF", 0) == 0) line.erase(0, 3);
    const std::size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t");
    const std::string entry = line.substr(begin, end - begin + 1);
    const fs::path p(entry);
    configs.push_back(p.is_absolute() || base.empty() ? p.string() : (base / p).string());
  }
  if (configs.empty())
    throw std::invalid_argument("batch manifest '" + dir_or_manifest + "' lists no configs");
  return configs;
}

BatchReport BatchRunner::run(const volatile std::sig_atomic_t* shutdown_flag, std::ostream* log) {
  if (ran_) throw std::logic_error("BatchRunner::run may only be called once");
  ran_ = true;

  BatchReport report;
  report.jobs.resize(configs_.size());
  for (std::size_t i = 0; i < configs_.size(); ++i) report.jobs[i].path = configs_[i];

  const bool journal_enabled = !options_.journal_path.empty();
  Journal journal(options_.journal_path);
  if (journal_enabled) {
    if (options_.resume) {
      journal.load();  // absent file = fresh batch
      const Journal::Recovery& rec = journal.last_recovery();
      if (rec.torn && log != nullptr)
        *log << "[batch] journal: torn tail recovered (" << rec.reason << "); kept "
             << rec.entries_kept << " complete record(s), torn bytes moved to "
             << rec.quarantine_path << '\n'
             << std::flush;
    } else {
      journal.clear();  // fail fast on an unwritable journal location
    }
  }

  // Build the initial ready queue: fingerprint every config and, on
  // --resume, restore jobs the journal already has in a terminal state.
  std::deque<std::pair<std::size_t, int>> ready;  // (index, attempt)
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    JobResult& j = report.jobs[i];
    try {
      j.fingerprint = fingerprint_file(configs_[i]);
    } catch (const std::exception& e) {
      j.state = JobState::kFailed;
      j.message = e.what();
      obs::bump(g_jobs_failed);
      continue;
    }
    if (journal_enabled && options_.resume) {
      if (const JournalEntry* e = journal.find(configs_[i], j.fingerprint)) {
        j.from_journal = true;
        j.state = parse_job_state(e->status).value_or(JobState::kFailed);
        j.converged = e->completed();
        j.attempts = e->attempts;
        j.duration_ms = e->duration_ms;
        j.degraded = e->degraded;
        j.rows = e->rows;
        ++report.journal_skips;
        obs::bump(g_journal_skips);
        continue;
      }
    }
    ready.emplace_back(i, 1);
  }

  std::vector<std::pair<steady::time_point, std::pair<std::size_t, int>>> delayed;
  CrashLedger ledger;  // keyed by manifest index
  int in_flight = 0;
  bool interrupted = false;
  const int pool_width = std::max(1, options_.parallel_jobs);
  const int max_attempts = 1 + std::max(0, options_.max_retries);

  const auto log_line = [&](const std::string& text) {
    if (log != nullptr) *log << "[batch] " << text << '\n' << std::flush;
  };

  const auto journal_terminal = [&](const JobResult& j) {
    if (!journal_enabled) return;
    JournalEntry e;
    e.config_path = j.path;
    e.fingerprint = j.fingerprint;
    e.status = to_string(j.state);
    e.attempts = j.attempts;
    e.duration_ms = j.duration_ms;
    e.degraded = j.degraded;
    e.rows = j.rows;
    journal.add(std::move(e));
  };

  // Leaves a job queued and unjournaled so --resume repeats its full
  // deterministic attempt sequence.
  const auto leave_for_resume = [&](JobResult& j, const std::string& why) {
    j.state = JobState::kQueued;
    j.attempts = 0;
    j.message = "interrupted before completion";
    log_line(j.path + ": " + why);
  };

  // The pool supplies the worker threads and the monitor-thread watchdog
  // (soft-cancel at the wall-clock budget, SIGKILL or hard-abandon once the
  // grace period passes without the cancel taking effect); the retry queue,
  // the journal, and the report stay here.
  JobPool pool(pool_width, options_.grace_ms, log_line);

  while (true) {
    // Shutdown request: freeze the queue, cancel what is running, drain.
    // No escalation — the drain waits for the cooperative cancel so jobs
    // stay resumable (only a watchdog that already fired may still abandon).
    if (!interrupted && shutdown_flag != nullptr && *shutdown_flag != 0) {
      interrupted = true;
      ready.clear();
      delayed.clear();
      pool.cancel_all(CancelReason::kShutdown, /*escalate=*/false);
      log_line("shutdown requested: draining " + std::to_string(in_flight) +
               " in-flight job(s)");
    }

    // Promote retries whose backoff elapsed.
    const auto now = steady::now();
    for (auto it = delayed.begin(); it != delayed.end();) {
      if (it->first <= now) {
        ready.push_back(it->second);
        it = delayed.erase(it);
      } else {
        ++it;
      }
    }

    // Dispatch up to the pool width.
    while (!interrupted && in_flight < pool_width && !ready.empty()) {
      const auto [index, attempt] = ready.front();
      ready.pop_front();
      auto ctx = std::make_shared<AttemptCtx>();
      ctx->index = index;
      ctx->attempt = attempt;
      report.jobs[index].state = JobState::kRunning;
      obs::bump(g_jobs_run);
      // The worker owns copies/shared handles of everything it touches, so
      // a hard-abandoned worker can outlive this function safely.
      const std::string path = configs_[index];
      const BatchOptions opt = options_;
      const AttemptRunner runner(options_.isolate,
                                 limits_from_budget(options_.job_budget_ms,
                                                    options_.worker_memory_mb,
                                                    options_.worker_stack_mb));
      pool.start(
          path, options_.job_budget_ms, ctx,
          [ctx, path, opt, attempt, runner](const CancelToken& token) {
            ctx->report = runner.run(
                [&](const CancelToken* t) { return attempt_config(path, opt, attempt, t); },
                token);
          },
          runner.kill_hook());
      ++in_flight;
    }

    // Reap finished and abandoned jobs.
    for (const JobPool::Handle& slot : pool.wait_terminal(std::chrono::milliseconds(10))) {
      const auto ctx = std::static_pointer_cast<AttemptCtx>(slot->context);
      const std::size_t index = ctx->index;
      JobResult& j = report.jobs[index];
      --in_flight;
      // A reaped slot is out of the watchdog's hands, so its flag is final.
      if (slot->watchdog_fired) obs::bump(g_watchdog_cancels);
      if (slot->phase == JobPool::Slot::kAbandoned) {
        j.state = JobState::kAbandoned;
        j.attempts = ctx->attempt;
        j.duration_ms = static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                              steady::now() - slot->started)
                                              .count());
        j.message = "watchdog abandoned the job (cancel not honoured within grace period)";
        ++report.abandoned;
        obs::bump(g_jobs_abandoned);
        journal_terminal(j);
        log_line(configs_[index] + ": abandoned");
        continue;
      }
      Verdict verdict = classify(std::move(ctx->report));
      AttemptOutcome& out = verdict.outcome;
      j.attempts = ctx->attempt;
      j.duration_ms = out.duration_ms;
      j.converged = out.converged;
      j.degraded = out.degraded;
      j.transient = out.transient;
      j.message = out.message;
      obs::observe(g_job_ms, out.duration_ms);
      if (verdict.state == JobState::kCrashed) {
        // Supervised respawn with two-strikes quarantine: the first worker
        // death earns one backed-off respawn (absorbs one-off flakes / OOM
        // pressure), the second poisons the config so --resume and every
        // later run skip it without re-executing the crasher.
        const int crashes = ledger.strike(index);
        obs::bump(g_worker_crashes);
        if (ledger.poisoned(index)) {
          j.state = JobState::kPoisoned;
          j.attempts = crashes;
          j.message = ledger.poison_message(index, out.message);
          ++report.poisoned;
          obs::bump(g_poisoned);
          journal_terminal(j);
          log_line(configs_[index] + ": poisoned after " + std::to_string(crashes) +
                   " worker crashes (" + out.message + ")");
        } else if (interrupted) {
          // Shutdown raced the crash: forget it so --resume replays the
          // full deterministic crash/respawn sequence from scratch.
          ledger.forgive(index);
          leave_for_resume(j, "interrupted, will re-run on --resume");
        } else {
          const long backoff = options_.crash_backoff_ms << (crashes - 1);
          delayed.emplace_back(steady::now() + std::chrono::milliseconds(backoff),
                               std::make_pair(index, ctx->attempt));
          j.state = JobState::kQueued;
          ++report.crash_respawns;
          obs::bump(g_crash_respawns);
          log_line(configs_[index] + ": worker crashed (" + out.message + "), respawning in " +
                   std::to_string(backoff) + " ms (strike " + std::to_string(crashes) + ")");
        }
      } else if (verdict.state == JobState::kCancelled &&
                 out.cancel_reason == CancelReason::kShutdown) {
        // Discarded, not journaled: --resume re-runs it from scratch so
        // the merged report stays byte-identical to an uninterrupted run.
        leave_for_resume(j, "interrupted, will re-run on --resume");
      } else if (verdict.state == JobState::kCancelled) {
        j.state = JobState::kCancelled;
        j.message = out.message + " [" + to_string(out.cancel_reason) + "]";
        obs::bump(g_jobs_cancelled);
        journal_terminal(j);
        log_line(configs_[index] + ": cancelled (" +
                 std::string(to_string(out.cancel_reason)) + ")");
      } else if (verdict.state == JobState::kDone) {
        j.state = JobState::kDone;
        j.rows = std::move(out.rows);
        obs::bump(g_jobs_done);
        journal_terminal(j);
        log_line(configs_[index] + ": done in " + std::to_string(out.duration_ms) + " ms" +
                 (out.degraded ? " (degraded)" : ""));
      } else if (out.transient && ctx->attempt < max_attempts && !interrupted) {
        const long backoff = options_.retry_backoff_ms * ctx->attempt;
        delayed.emplace_back(steady::now() + std::chrono::milliseconds(backoff),
                             std::make_pair(index, ctx->attempt + 1));
        j.state = JobState::kQueued;
        ++report.retries;
        obs::bump(g_retries);
        log_line(configs_[index] + ": transient failure (" + out.message + "), retry " +
                 std::to_string(ctx->attempt + 1) + "/" + std::to_string(max_attempts) +
                 " in " + std::to_string(backoff) + " ms");
      } else if (out.transient && interrupted) {
        // Would have been retried: leave it for --resume.
        leave_for_resume(j, "interrupted during retry window, will re-run");
      } else {
        j.state = JobState::kFailed;
        obs::bump(g_jobs_failed);
        journal_terminal(j);
        log_line(configs_[index] + ": failed (" + out.message + ")");
      }
    }

    if (in_flight == 0 && ready.empty() && delayed.empty()) break;
  }
  report.watchdog_cancels = pool.watchdog_cancels();

  report.interrupted = interrupted;
  return report;
}

}  // namespace hem::exec
