#include "exec/job_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace hem::exec {
namespace {

using namespace std::chrono_literals;

/// Reap handles until `n` terminal jobs are collected or ~5s pass.
std::vector<JobPool::Handle> reap(JobPool& pool, std::size_t n) {
  std::vector<JobPool::Handle> out;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (out.size() < n && std::chrono::steady_clock::now() < deadline) {
    for (auto& h : pool.wait_terminal(50ms)) out.push_back(std::move(h));
  }
  return out;
}

TEST(JobPoolTest, RunsJobsAndReturnsContext) {
  JobPool pool(2, 1000);
  auto a = std::make_shared<int>(0);
  auto b = std::make_shared<int>(0);
  pool.start("a", 0, a, [a](const CancelToken&) { *a = 1; });
  pool.start("b", 0, b, [b](const CancelToken&) { *b = 2; });
  const auto done = reap(pool, 2);
  ASSERT_EQ(done.size(), 2u);
  for (const auto& h : done) EXPECT_EQ(h->phase, JobPool::Slot::kFinished);
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(pool.running(), 0u);
  EXPECT_TRUE(pool.available());
}

TEST(JobPoolTest, WatchdogSoftCancelsOverBudgetJob) {
  std::vector<std::string> log;
  JobPool pool(1, 10'000, [&](const std::string& line) { log.push_back(line); });
  std::atomic<bool> saw_cancel{false};
  pool.start("slow", 50, nullptr, [&](const CancelToken& token) {
    while (!token.cancelled()) std::this_thread::sleep_for(1ms);
    saw_cancel = token.reason() == CancelReason::kWatchdog;
  });
  const auto done = reap(pool, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0]->phase, JobPool::Slot::kFinished);  // cancel honoured in time
  EXPECT_TRUE(saw_cancel.load());
  EXPECT_EQ(pool.watchdog_cancels(), 1);
  EXPECT_EQ(pool.abandoned(), 0);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log[0].rfind("watchdog: soft-cancelled slow", 0), 0u) << log[0];
}

TEST(JobPoolTest, UnresponsiveJobIsAbandonedAfterGrace) {
  JobPool pool(1, 50);  // short grace: abandon fast
  // Shared with the (soon-detached) worker: stack captures would dangle.
  auto release = std::make_shared<std::atomic<bool>>(false);
  pool.start("stuck", 20, nullptr, [release](const CancelToken&) {
    // Ignores its token entirely, like a fixpoint that never polls.
    while (!release->load()) std::this_thread::sleep_for(1ms);
  });
  const auto done = reap(pool, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0]->phase, JobPool::Slot::kAbandoned);
  EXPECT_EQ(pool.abandoned(), 1);
  EXPECT_TRUE(pool.available());  // the slot is free again despite the zombie
  release->store(true);           // let the detached worker exit cleanly
}

TEST(JobPoolTest, CancelWithoutEscalationWaitsForever) {
  JobPool pool(1, 30);  // grace is short, but non-escalating cancel ignores it
  std::atomic<bool> polled{false};
  auto ctx = std::make_shared<int>(0);
  auto handle = pool.start("drain", 0, ctx, [&, ctx](const CancelToken& token) {
    while (!token.cancelled()) std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(100ms);  // well past grace_ms
    *ctx = 7;
    polled = true;
  });
  pool.cancel(handle, CancelReason::kShutdown, /*escalate=*/false);
  const auto done = reap(pool, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0]->phase, JobPool::Slot::kFinished);  // never abandoned
  EXPECT_TRUE(polled.load());
  EXPECT_EQ(*ctx, 7);
  EXPECT_EQ(pool.abandoned(), 0);
  EXPECT_EQ(done[0]->token.reason(), CancelReason::kShutdown);
}

TEST(JobPoolTest, EscalatingCancelAbandonsUnresponsiveJob) {
  JobPool pool(1, 40);
  auto release = std::make_shared<std::atomic<bool>>(false);
  auto handle = pool.start("deaf", 0, nullptr, [release](const CancelToken&) {
    while (!release->load()) std::this_thread::sleep_for(1ms);
  });
  pool.cancel(handle, CancelReason::kDisconnect, /*escalate=*/true);
  const auto done = reap(pool, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0]->phase, JobPool::Slot::kAbandoned);
  EXPECT_EQ(done[0]->token.reason(), CancelReason::kDisconnect);
  release->store(true);
}

TEST(JobPoolTest, CancelAllStopsEveryRunningJob) {
  JobPool pool(3, 1000);
  std::atomic<int> cancelled{0};
  for (int i = 0; i < 3; ++i) {
    pool.start("j" + std::to_string(i), 0, nullptr, [&](const CancelToken& token) {
      while (!token.cancelled()) std::this_thread::sleep_for(1ms);
      cancelled.fetch_add(1);
    });
  }
  pool.cancel_all(CancelReason::kShutdown, /*escalate=*/false);
  const auto done = reap(pool, 3);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(cancelled.load(), 3);
}

TEST(JobPoolTest, DestructorOfDrainedPoolReturnsPromptly) {
  // The old drain loop slept one full 50 ms wait step even with nothing
  // active; the bound is loose enough for sanitizer builds.
  const auto destroy_ms = [](std::unique_ptr<JobPool> pool) {
    const auto t0 = std::chrono::steady_clock::now();
    pool.reset();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  EXPECT_LT(destroy_ms(std::make_unique<JobPool>(2, 1000)), 25);

  auto reaped = std::make_unique<JobPool>(1, 1000);
  reaped->start("quick", 0, nullptr, [](const CancelToken&) {});
  ASSERT_EQ(reap(*reaped, 1).size(), 1u);
  EXPECT_LT(destroy_ms(std::move(reaped)), 25);
}

TEST(JobPoolTest, DestructorSurvivesUnresponsiveJobs) {
  auto release = std::make_shared<std::atomic<bool>>(false);
  {
    JobPool pool(1, 30);
    pool.start("zombie", 0, nullptr, [release](const CancelToken&) {
      while (!release->load()) std::this_thread::sleep_for(1ms);
    });
    // Destructor must cancel, wait out the grace period, detach, and return
    // instead of blocking on the deaf worker.
  }
  release->store(true);
}

}  // namespace
}  // namespace hem::exec
