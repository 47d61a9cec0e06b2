#pragma once

/// \file supervisor.hpp
/// Supervision shared by `hemcpa --batch` and `hemcpad`: job states, the
/// crash ledger behind two-strikes poisoning, where an attempt runs, and
/// how its WorkerReport is classified.  Policy stays with the callers: the
/// batch retries and respawns after a first crash; the daemon reports
/// `crashed` and refuses poisoned configs at admission.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "exec/worker_process.hpp"

namespace hem::exec {

class Journal;

/// kQueued -> kRunning -> a terminal state, whose name is its journal
/// status.  kCrashed = the worker process died (signal / OOM / rlimit);
/// kPoisoned = quarantined after kPoisonThreshold deaths.
enum class JobState {
  kQueued, kRunning, kDone, kFailed, kCancelled, kAbandoned, kCrashed, kPoisoned
};

[[nodiscard]] const char* to_string(JobState s) noexcept;

/// Inverse of to_string; nullopt for an unknown name.
[[nodiscard]] std::optional<JobState> parse_job_state(std::string_view name) noexcept;

[[nodiscard]] constexpr bool terminal(JobState s) noexcept {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// Worker deaths that quarantine a config: one respawn (batch) or
/// resubmission (daemon) is allowed, the second death poisons it.
inline constexpr int kPoisonThreshold = 2;

/// Worker deaths per caller-chosen key (the batch keys by manifest index,
/// the daemon by config fingerprint).  Not synchronised.
class CrashLedger {
 public:
  /// Record one worker death; returns the strikes now held.
  int strike(std::uint64_t key) { return ++strikes_[key]; }
  /// Undo one strike: a shutdown raced the crash, so a resume replays it.
  void forgive(std::uint64_t key) { --strikes_[key]; }
  [[nodiscard]] int strikes(std::uint64_t key) const;
  [[nodiscard]] bool poisoned(std::uint64_t key) const {
    return strikes(key) >= kPoisonThreshold;
  }
  /// Rebuild from a journal, keyed by fingerprint: a `crashed` record keeps
  /// one strike, a `poisoned` one the full threshold.
  void seed(const Journal& journal);
  /// Terminal message of a poisoned key whose last worker died of `last`.
  [[nodiscard]] std::string poison_message(std::uint64_t key, const std::string& last) const;

 private:
  std::map<std::uint64_t, int> strikes_;
};

/// Where one attempt runs.  Built at dispatch: run() is called on the
/// JobPool thread and kill_hook() goes to the same JobPool::start.
class AttemptRunner {
 public:
  /// `isolate` forks one rlimit-capped worker per attempt where supported.
  AttemptRunner(bool isolate, const WorkerLimits& limits);

  [[nodiscard]] bool isolated() const noexcept { return session_ != nullptr; }

  /// Isolated: `work(nullptr)` runs in a forked child while this thread
  /// polls `token` (the token stays parent-side; a fired one SIGKILLs the
  /// child).  In-process: `work(&token)` runs here, reported as kResult.
  [[nodiscard]] WorkerReport run(const std::function<AttemptOutcome(const CancelToken*)>& work,
                                 const CancelToken& token) const;

  /// The watchdog's SIGKILL escalation; null in-process (detach on abandon).
  [[nodiscard]] std::function<void()> kill_hook() const;

 private:
  std::shared_ptr<WorkerProcess> session_;  ///< null = in-process
  WorkerLimits limits_;
};

/// `state` is kDone, kFailed, kCancelled or kCrashed; after a crash or a
/// spawn failure `outcome.message` is the worker's detail.
struct Verdict {
  JobState state = JobState::kFailed;
  AttemptOutcome outcome;
};

/// A worker death (kCrashed, kResourceExhausted) is kCrashed; a spawn
/// failure is a transient kFailed (nothing ran); anything else follows the
/// outcome: cancelled, else done when ok, else failed.
[[nodiscard]] Verdict classify(WorkerReport report);

}  // namespace hem::exec
