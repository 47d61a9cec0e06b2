// Tests for the out-of-process analysis sandbox (exec/worker_process.hpp):
// frame encode/decode round-trips and torn-frame rejection, crash and
// resource-limit classification of real forked children, kill() semantics,
// and the budget -> rlimit mapping.  The fork-based cases are guarded on
// WorkerProcess::supported() so the file still compiles (and trivially
// passes) on hosts without POSIX process isolation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/worker_process.hpp"

namespace hem::exec {
namespace {

AttemptOutcome sample_outcome() {
  AttemptOutcome out;
  out.ok = true;
  out.degraded = true;
  out.converged = true;
  out.cancelled = false;
  out.transient = false;
  out.cancel_reason = CancelReason::kNone;
  out.duration_ms = 4321;
  out.message = "all good, with = signs and\nnewlines";
  out.rows = {"cfg,task,42", "cfg,other,17", ""};
  return out;
}

TEST(WorkerFrameTest, EncodeDecodeRoundTripsEveryPipeSafeField) {
  const AttemptOutcome in = sample_outcome();
  AttemptOutcome out;
  ASSERT_TRUE(decode_outcome(encode_outcome(in), out));
  EXPECT_EQ(out.ok, in.ok);
  EXPECT_EQ(out.degraded, in.degraded);
  EXPECT_EQ(out.converged, in.converged);
  EXPECT_EQ(out.cancelled, in.cancelled);
  EXPECT_EQ(out.transient, in.transient);
  EXPECT_EQ(out.cancel_reason, in.cancel_reason);
  EXPECT_EQ(out.duration_ms, in.duration_ms);
  EXPECT_EQ(out.message, in.message);
  EXPECT_EQ(out.rows, in.rows);
  EXPECT_EQ(out.report, nullptr);
}

TEST(WorkerFrameTest, LayoutIsPinnedWithAZeroReservedWord) {
  const std::string frame = encode_outcome(sample_outcome());
  // 8 magic + 4 u64 words (flags, reason, duration, reserved) + message
  // (8 + 35) + row count 8 + rows (8 + 11, 8 + 12, 8 + 0).
  EXPECT_EQ(frame.size(), 138u);
  // The fourth u64 word is reserved and always encodes as 0.
  EXPECT_EQ(frame.substr(8 + 3 * 8, 8), std::string(8, '\0'));
}

TEST(WorkerFrameTest, CancelledOutcomeKeepsItsReason) {
  AttemptOutcome in;
  in.cancelled = true;
  in.cancel_reason = CancelReason::kWatchdog;
  in.message = "budget exhausted";
  AttemptOutcome out;
  ASSERT_TRUE(decode_outcome(encode_outcome(in), out));
  EXPECT_TRUE(out.cancelled);
  EXPECT_EQ(out.cancel_reason, CancelReason::kWatchdog);
}

TEST(WorkerFrameTest, DecodeRejectsTornAndForeignFrames) {
  const std::string good = encode_outcome(sample_outcome());
  AttemptOutcome out;
  // Every proper prefix is torn: no truncation length may decode.
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_FALSE(decode_outcome(good.substr(0, cut), out)) << "cut at " << cut;
  // Trailing garbage and a foreign magic must be rejected too.
  EXPECT_FALSE(decode_outcome(good + "x", out));
  std::string foreign = good;
  foreign[0] = 'X';
  EXPECT_FALSE(decode_outcome(foreign, out));
  EXPECT_FALSE(decode_outcome("", out));
  // A failed decode must not clobber the caller's outcome.
  out = sample_outcome();
  EXPECT_FALSE(decode_outcome(good.substr(0, good.size() / 2), out));
  EXPECT_EQ(out.message, sample_outcome().message);
}

TEST(WorkerLimitsTest, BudgetMapsToGenerousCpuSecondsAndByteCaps) {
  const WorkerLimits none = limits_from_budget(0, 0, 0);
  EXPECT_EQ(none.cpu_seconds, 0);
  EXPECT_EQ(none.memory_bytes, 0);
  EXPECT_EQ(none.stack_bytes, 0);

  // Sub-second budgets round up to one wall second -> 4*1+2 CPU seconds.
  EXPECT_EQ(limits_from_budget(1, 0).cpu_seconds, 6);
  EXPECT_EQ(limits_from_budget(1000, 0).cpu_seconds, 6);
  EXPECT_EQ(limits_from_budget(2500, 0).cpu_seconds, 14);

  const WorkerLimits caps = limits_from_budget(0, 512, 8);
  EXPECT_EQ(caps.memory_bytes, 512LL << 20);
  EXPECT_EQ(caps.stack_bytes, 8LL << 20);
}

TEST(WorkerProcessTest, CleanChildShipsItsOutcomeBack) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  WorkerProcess worker;
  const WorkerReport report =
      worker.run([] { return sample_outcome(); }, WorkerLimits{}, nullptr);
  ASSERT_EQ(report.kind, WorkerExit::kResult);
  EXPECT_TRUE(report.outcome.ok);
  EXPECT_EQ(report.outcome.duration_ms, sample_outcome().duration_ms);
  EXPECT_EQ(report.outcome.message, sample_outcome().message);
  EXPECT_EQ(report.outcome.rows, sample_outcome().rows);
}

TEST(WorkerProcessTest, SegfaultBecomesCrashedWithTheSignal) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  WorkerProcess worker;
  const WorkerReport report = worker.run(
      []() -> AttemptOutcome {
        ::raise(SIGSEGV);
        return {};
      },
      WorkerLimits{}, nullptr);
  EXPECT_EQ(report.kind, WorkerExit::kCrashed);
  // Natively the child dies on SIGSEGV; under AddressSanitizer the signal
  // is intercepted and the child exits nonzero instead.  Both are crashes.
  EXPECT_TRUE(report.term_signal == SIGSEGV || report.exit_status != 0)
      << report.detail;
  EXPECT_FALSE(report.outcome.ok);
}

TEST(WorkerProcessTest, AbortBecomesCrashedNotParentDeath) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  WorkerProcess worker;
  const WorkerReport report = worker.run(
      []() -> AttemptOutcome {
        std::abort();
      },
      WorkerLimits{}, nullptr);
  EXPECT_EQ(report.kind, WorkerExit::kCrashed);
  EXPECT_EQ(report.term_signal, SIGABRT);
}

TEST(WorkerProcessTest, NonZeroExitIsCrashedWithTheStatus) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  WorkerProcess worker;
  const WorkerReport report = worker.run(
      []() -> AttemptOutcome {
        std::_Exit(9);
      },
      WorkerLimits{}, nullptr);
  EXPECT_EQ(report.kind, WorkerExit::kCrashed);
  EXPECT_EQ(report.exit_status, 9);
}

TEST(WorkerProcessTest, CpuLimitTurnsASpinLoopIntoResourceExhausted) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  WorkerProcess worker;
  WorkerLimits limits;
  limits.cpu_seconds = 1;
  const WorkerReport report = worker.run(
      []() -> AttemptOutcome {
        volatile std::uint64_t x = 1;
        for (;;) x = x * 2654435761u + 1;
      },
      limits, nullptr);
  EXPECT_EQ(report.kind, WorkerExit::kResourceExhausted) << report.detail;
}

TEST(WorkerProcessTest, KillFromAnotherThreadYieldsKilledCancelledOutcome) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  WorkerProcess worker;
  std::thread killer([&worker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    worker.kill();
  });
  const WorkerReport report = worker.run(
      []() -> AttemptOutcome {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return {};
      },
      WorkerLimits{}, nullptr);
  killer.join();
  EXPECT_EQ(report.kind, WorkerExit::kKilled);
  EXPECT_TRUE(report.outcome.cancelled);
}

TEST(WorkerProcessTest, KillBeforeRunKillsTheChildOnArrival) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  WorkerProcess worker;
  worker.kill();  // pre-fork: marks the next child as doomed
  const WorkerReport report = worker.run(
      []() -> AttemptOutcome {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return {};
      },
      WorkerLimits{}, nullptr);
  EXPECT_EQ(report.kind, WorkerExit::kKilled);
  worker.kill();  // post-reap: must stay a no-op
}

TEST(WorkerProcessTest, FiredCancelTokenKillsTheChild) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  CancelToken token;
  WorkerProcess worker;
  std::thread firer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    token.cancel(CancelReason::kWatchdog);
  });
  const WorkerReport report = worker.run(
      []() -> AttemptOutcome {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return {};
      },
      WorkerLimits{}, &token);
  firer.join();
  EXPECT_EQ(report.kind, WorkerExit::kKilled);
  EXPECT_TRUE(report.outcome.cancelled);
  EXPECT_EQ(report.outcome.cancel_reason, CancelReason::kWatchdog);
}

TEST(WorkerProcessTest, LivePidsTracksTheRunningChild) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  WorkerProcess worker;
  std::atomic<bool> saw_child{false};
  std::thread watcher([&] {
    for (int i = 0; i < 200 && !saw_child.load(); ++i) {
      if (!WorkerProcess::live_pids().empty()) saw_child.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Whether or not we spotted it, put the child out of its misery.
    worker.kill();
  });
  const WorkerReport report = worker.run(
      []() -> AttemptOutcome {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return {};
      },
      WorkerLimits{}, nullptr);
  watcher.join();
  EXPECT_TRUE(saw_child.load());
  EXPECT_EQ(report.kind, WorkerExit::kKilled);
  // Once reaped, the pid must be gone from the registry.
  const std::vector<int> after = WorkerProcess::live_pids();
  EXPECT_TRUE(after.empty());
}

TEST(WorkerProcessTest, ExitKindsHaveStableNames) {
  EXPECT_STREQ(to_string(WorkerExit::kResult), "result");
  EXPECT_STREQ(to_string(WorkerExit::kCrashed), "crashed");
  EXPECT_STREQ(to_string(WorkerExit::kResourceExhausted), "resource-exhausted");
  EXPECT_STREQ(to_string(WorkerExit::kKilled), "killed");
  EXPECT_STREQ(to_string(WorkerExit::kSpawnFailed), "spawn-failed");
}

}  // namespace
}  // namespace hem::exec
