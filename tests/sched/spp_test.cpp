#include "sched/local_analysis.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams task(std::string name, int prio, Time cet, ModelPtr act) {
  return TaskParams{std::move(name), prio, ExecutionTime(cet), std::move(act)};
}

LocalAnalysis spp(std::vector<TaskParams> tasks) {
  return LocalAnalysis(Policy::kSppPreemptive, std::move(tasks));
}

TEST(SppTest, SingleTaskResponseIsItsCet) {
  const auto a = spp({task("t", 1, 10, periodic(100))});
  const auto r = a.analyze(0);
  EXPECT_EQ(r.wcrt, 10);
  EXPECT_EQ(r.bcrt, 10);
  EXPECT_EQ(r.activations, 1);
}

TEST(SppTest, ClassicTwoTaskExample) {
  // hp: C=2, P=5.  lp: C=4, P=20.
  // lp busy window: w = 4 + 2*ceil(...): w=4 -> I = 2*eta(4)=2 -> 6;
  // w=6 -> eta(6)=2 -> 8; w=8 -> 8 (eta(8)=2). WCRT(lp) = 8.
  const auto a = spp({task("hp", 1, 2, periodic(5)), task("lp", 2, 4, periodic(20))});
  EXPECT_EQ(a.analyze(0).wcrt, 2);
  EXPECT_EQ(a.analyze(1).wcrt, 8);
}

TEST(SppTest, LehoczkyArbitraryDeadlineExample) {
  // The classic arbitrary-deadline example: t1 C=26 P=70 (high), t2 C=62
  // P=100 (low).  The level-2 busy period is 694 ticks and spans 7
  // activations of t2; completions w(q) and responses w(q) - 100(q-1):
  //   q:     1    2    3    4    5    6    7
  //   w(q):  114  202  316  404  518  606  694
  //   R(q):  114  102  116  104  118  106  94
  // so the 5th activation dominates with WCRT 118.
  const auto a = spp({task("t1", 1, 26, periodic(70)), task("t2", 2, 62, periodic(100))});
  const auto r = a.analyze(1);
  EXPECT_EQ(r.wcrt, 118);
  EXPECT_EQ(r.busy_period, 694);
  EXPECT_EQ(r.activations, 7);
}

TEST(SppTest, JitteredInterferenceIncreasesResponse) {
  const auto smooth =
      spp({task("hp", 1, 2, periodic(5)), task("lp", 2, 4, periodic(20))}).analyze(1).wcrt;
  const auto jittered =
      spp({task("hp", 1, 2, StandardEventModel::periodic_with_jitter(5, 6)),
           task("lp", 2, 4, periodic(20))})
          .analyze(1)
          .wcrt;
  EXPECT_GT(jittered, smooth);
}

TEST(SppTest, BurstActivationMultipleQ) {
  // Task activated by a burst of 3 simultaneous events.
  const auto burst = StandardEventModel::periodic_with_jitter(100, 250);
  const auto a = spp({task("t", 1, 10, burst)});
  const auto r = a.analyze(0);
  // Three jobs back to back: the 3rd finishes at 30, arrived at 0.
  EXPECT_EQ(r.wcrt, 30);
  EXPECT_GE(r.activations, 3);
}

TEST(SppTest, OverloadThrows) {
  const auto a = spp({task("t", 1, 120, periodic(100))});
  EXPECT_THROW(a.analyze(0), AnalysisError);
}

TEST(SppTest, DuplicatePrioritiesRejected) {
  EXPECT_THROW(spp({task("a", 1, 1, periodic(10)), task("b", 1, 1, periodic(10))}),
               std::invalid_argument);
}

TEST(SppTest, AnalyzeAllKeepsOrder) {
  const auto a = spp({task("x", 2, 4, periodic(20)), task("y", 1, 2, periodic(5))});
  const auto all = a.analyze_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "x");
  EXPECT_EQ(all[1].name, "y");
  EXPECT_EQ(all[1].wcrt, 2);
}

TEST(SppTest, LowerPriorityNeverFaster) {
  // Adding interference can only increase response times.
  const std::vector<Time> periods{7, 13, 29, 53};
  std::vector<TaskParams> tasks;
  for (std::size_t i = 0; i < periods.size(); ++i)
    tasks.push_back(task("t" + std::to_string(i), static_cast<int>(i), 2, periodic(periods[i])));
  const auto a = spp(tasks);
  Time prev = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Time r = a.analyze(i).wcrt;
    EXPECT_GE(r, prev);
    prev = r;
  }
}

}  // namespace
}  // namespace hem::sched
