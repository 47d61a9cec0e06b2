// Analysis monotonicity properties: response bounds must react to
// parameter changes in the physically sensible direction.  These sweeps
// guard against subtle regressions in the fixpoint machinery.

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"
#include "sched/local_analysis.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams task(std::string name, int prio, Time cet, ModelPtr act) {
  return TaskParams{std::move(name), prio, ExecutionTime(cet), std::move(act)};
}

LocalAnalysis spp(std::vector<TaskParams> tasks) {
  return LocalAnalysis(Policy::kSppPreemptive, std::move(tasks));
}

LocalAnalysis can(std::vector<TaskParams> tasks) {
  return LocalAnalysis(Policy::kSpnpCan, std::move(tasks));
}

TEST(MonotonicityTest, SppWcrtGrowsWithOwnCet) {
  Time prev = 0;
  for (Time c = 1; c <= 40; c += 3) {
    const auto a = spp({task("hp", 1, 2, periodic(10)), task("lp", 2, c, periodic(200))});
    const Time w = a.analyze(1).wcrt;
    EXPECT_GE(w, prev) << c;
    EXPECT_GE(w, c) << c;
    prev = w;
  }
}

TEST(MonotonicityTest, SppWcrtGrowsWithInterfererJitter) {
  Time prev = 0;
  for (Time j = 0; j <= 60; j += 5) {
    const auto a = spp({task("hp", 1, 3, StandardEventModel::periodic_with_jitter(20, j)),
                        task("lp", 2, 8, periodic(100))});
    const Time w = a.analyze(1).wcrt;
    EXPECT_GE(w, prev) << j;
    prev = w;
  }
}

TEST(MonotonicityTest, SppWcrtShrinksWithInterfererPeriod) {
  Time prev = kTimeInfinity;
  for (Time p = 8; p <= 80; p += 6) {
    const auto a = spp({task("hp", 1, 3, periodic(p)), task("lp", 2, 8, periodic(400))});
    const Time w = a.analyze(1).wcrt;
    EXPECT_LE(w, prev) << p;
    prev = w;
  }
}

TEST(MonotonicityTest, CanWcrtGrowsWithBlocking) {
  Time prev = 0;
  for (Time blocker = 1; blocker <= 30; blocker += 4) {
    const auto a = can(
        {task("hi", 1, 4, periodic(100)), task("lo", 2, blocker, periodic(400))});
    const Time w = a.analyze(0).wcrt;
    EXPECT_GE(w, prev) << blocker;
    prev = w;
  }
}

TEST(MonotonicityTest, BacklogGrowsWithBurstSize) {
  Count prev = 0;
  for (Time j = 0; j <= 900; j += 150) {
    const auto a = spp({task("t", 1, 10, StandardEventModel::periodic_with_jitter(100, j))});
    const Count b = a.analyze(0).backlog;
    EXPECT_GE(b, prev) << j;
    prev = b;
  }
}

TEST(MonotonicityTest, AddingTaskNeverHelpsAnyone) {
  const std::vector<TaskParams> base{task("a", 1, 2, periodic(20)),
                                     task("b", 2, 5, periodic(60))};
  std::vector<TaskParams> more = base;
  more.push_back(task("c", 3, 4, periodic(80)));
  // Existing tasks: unchanged (c is lowest priority) for SPP...
  const auto small = spp(base), big = spp(more);
  EXPECT_EQ(small.analyze(0).wcrt, big.analyze(0).wcrt);
  EXPECT_EQ(small.analyze(1).wcrt, big.analyze(1).wcrt);
  // ...but on CAN the new frame blocks everyone above it.
  const auto can_small = can(base), can_big = can(more);
  EXPECT_GE(can_big.analyze(0).wcrt, can_small.analyze(0).wcrt);
  EXPECT_GE(can_big.analyze(1).wcrt, can_small.analyze(1).wcrt);
}

}  // namespace
}  // namespace hem::sched
