#include "exec/supervisor.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "exec/journal.hpp"

namespace hem::exec {
namespace {

constexpr JobState kAllStates[] = {
    JobState::kQueued,    JobState::kRunning,   JobState::kDone,    JobState::kFailed,
    JobState::kCancelled, JobState::kAbandoned, JobState::kCrashed, JobState::kPoisoned,
};

WorkerReport report_of(WorkerExit kind) {
  WorkerReport r;
  r.kind = kind;
  return r;
}

TEST(SupervisorTest, EveryStateRoundTripsThroughItsName) {
  for (const JobState s : kAllStates) {
    const std::optional<JobState> back = parse_job_state(to_string(s));
    ASSERT_TRUE(back.has_value()) << to_string(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(parse_job_state("").has_value());
  EXPECT_FALSE(parse_job_state("Done").has_value());
  EXPECT_FALSE(parse_job_state("done ").has_value());
  EXPECT_FALSE(parse_job_state("bogus").has_value());
  EXPECT_FALSE(terminal(JobState::kQueued));
  EXPECT_FALSE(terminal(JobState::kRunning));
  EXPECT_TRUE(terminal(JobState::kPoisoned));
}

TEST(SupervisorTest, LedgerPoisonsAtTheThreshold) {
  CrashLedger ledger;
  EXPECT_EQ(ledger.strikes(7), 0);
  for (int i = 1; i < kPoisonThreshold; ++i) {
    EXPECT_EQ(ledger.strike(7), i);
    EXPECT_FALSE(ledger.poisoned(7));
  }
  EXPECT_EQ(ledger.strike(7), kPoisonThreshold);
  EXPECT_TRUE(ledger.poisoned(7));
  EXPECT_FALSE(ledger.poisoned(8));  // keys are independent
  EXPECT_EQ(ledger.poison_message(7, "worker crashed: signal 11"),
            "poisoned: worker crashed " + std::to_string(kPoisonThreshold) +
                " times (last: worker crashed: signal 11)");
}

TEST(SupervisorTest, ForgiveUndoesAStrike) {
  CrashLedger ledger;
  (void)ledger.strike(3);
  ledger.forgive(3);
  EXPECT_EQ(ledger.strikes(3), 0);
  for (int i = 1; i < kPoisonThreshold; ++i) (void)ledger.strike(3);
  EXPECT_FALSE(ledger.poisoned(3));  // the forgiven strike does not count
}

TEST(SupervisorTest, JournalSeedingTakesTheMaxOfCrashedAndPoisoned) {
  const std::string path = std::string(::testing::TempDir()) + "supervisor_seed.journal";
  std::remove(path.c_str());
  {
    Journal journal(path);
    const auto add = [&](std::uint64_t fp, const char* status) {
      JournalEntry e;
      e.config_path = "c" + std::to_string(fp);
      e.fingerprint = fp;
      e.status = status;
      journal.add(e);
    };
    add(1, "crashed");
    add(2, "poisoned");
    add(2, "crashed");  // a later crashed record never lowers a poisoned one
    add(3, "crashed");
    add(3, "crashed");  // two crashed records still hold one strike
    add(4, "done");
    add(5, "failed");
    CrashLedger ledger;
    ledger.seed(journal);
    EXPECT_EQ(ledger.strikes(1), 1);
    EXPECT_EQ(ledger.strikes(2), kPoisonThreshold);
    EXPECT_TRUE(ledger.poisoned(2));
    EXPECT_EQ(ledger.strikes(3), 1);
    EXPECT_EQ(ledger.strikes(4), 0);
    EXPECT_EQ(ledger.strikes(5), 0);
    // Seeding keeps strikes already held when they are higher.
    CrashLedger held;
    (void)held.strike(1);
    (void)held.strike(1);
    held.seed(journal);
    EXPECT_EQ(held.strikes(1), 2);
  }
  std::remove(path.c_str());
}

TEST(SupervisorTest, ClassifierMapsEveryWorkerExit) {
  WorkerReport done = report_of(WorkerExit::kResult);
  done.outcome.ok = true;
  done.outcome.rows = {"row"};
  const Verdict d = classify(done);
  EXPECT_EQ(d.state, JobState::kDone);
  EXPECT_EQ(d.outcome.rows.size(), 1u);

  WorkerReport failed = report_of(WorkerExit::kResult);
  failed.outcome.message = "parse error";
  const Verdict f = classify(failed);
  EXPECT_EQ(f.state, JobState::kFailed);
  EXPECT_FALSE(f.outcome.transient);
  EXPECT_EQ(f.outcome.message, "parse error");

  WorkerReport cancelled = report_of(WorkerExit::kResult);
  cancelled.outcome.cancelled = true;
  EXPECT_EQ(classify(cancelled).state, JobState::kCancelled);

  WorkerReport killed = report_of(WorkerExit::kKilled);
  killed.outcome.cancelled = true;
  killed.outcome.cancel_reason = CancelReason::kWatchdog;
  const Verdict k = classify(killed);
  EXPECT_EQ(k.state, JobState::kCancelled);
  EXPECT_EQ(k.outcome.cancel_reason, CancelReason::kWatchdog);

  for (const WorkerExit death : {WorkerExit::kCrashed, WorkerExit::kResourceExhausted}) {
    WorkerReport crashed = report_of(death);
    crashed.detail = "worker crashed: signal 11 (SIGSEGV)";
    const Verdict c = classify(crashed);
    EXPECT_EQ(c.state, JobState::kCrashed) << to_string(death);
    EXPECT_EQ(c.outcome.message, crashed.detail);
  }

  // fork()/pipe() failed: nothing ran, so the failure is retryable and the
  // cause reaches whoever reports the job.
  WorkerReport spawn = report_of(WorkerExit::kSpawnFailed);
  spawn.detail = "fork: Resource temporarily unavailable";
  const Verdict s = classify(spawn);
  EXPECT_EQ(s.state, JobState::kFailed);
  EXPECT_TRUE(s.outcome.transient);
  EXPECT_EQ(s.outcome.message, "fork: Resource temporarily unavailable");
}

TEST(SupervisorTest, InProcessRunnerPassesTheTokenAndHasNoKillHook) {
  const AttemptRunner runner(/*isolate=*/false, WorkerLimits{});
  EXPECT_FALSE(runner.isolated());
  EXPECT_EQ(runner.kill_hook(), nullptr);
  CancelToken token;
  const CancelToken* seen = nullptr;
  const WorkerReport r = runner.run(
      [&](const CancelToken* t) {
        seen = t;
        AttemptOutcome out;
        out.ok = true;
        return out;
      },
      token);
  EXPECT_EQ(seen, &token);
  EXPECT_EQ(r.kind, WorkerExit::kResult);
  EXPECT_EQ(classify(r).state, JobState::kDone);
}

TEST(SupervisorTest, IsolatedRunnerForksAndHasAKillHook) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  const AttemptRunner runner(/*isolate=*/true, WorkerLimits{});
  EXPECT_TRUE(runner.isolated());
  EXPECT_NE(runner.kill_hook(), nullptr);
  const CancelToken token;
  const WorkerReport r = runner.run(
      [](const CancelToken* t) {
        AttemptOutcome out;
        out.ok = t == nullptr;  // the token stays in the parent
        out.message = "from the child";
        return out;
      },
      token);
  EXPECT_EQ(r.kind, WorkerExit::kResult) << r.detail;
  EXPECT_TRUE(r.outcome.ok);
  EXPECT_EQ(r.outcome.message, "from the child");
}

}  // namespace
}  // namespace hem::exec
