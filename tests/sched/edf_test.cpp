#include "sched/local_analysis.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams et(std::string name, Time cet, Time deadline, ModelPtr act) {
  return TaskParams{std::move(name), 0, ExecutionTime(cet), std::move(act), 0, deadline};
}

LocalAnalysis edf(std::vector<TaskParams> tasks) {
  return LocalAnalysis(Policy::kEdf, std::move(tasks));
}

TEST(EdfTest, DemandBoundFunctionShape) {
  const auto a = edf({et("t", 2, 5, periodic(10))});
  EXPECT_EQ(a.demand_bound(Time{4}), 0);   // before first deadline
  EXPECT_EQ(a.demand_bound(Time{5}), 2);   // first job: arrive 0, deadline 5
  EXPECT_EQ(a.demand_bound(Time{14}), 2);
  EXPECT_EQ(a.demand_bound(Time{15}), 4);  // second job: arrive 10, deadline 15
  EXPECT_EQ(a.demand_bound(Time{25}), 6);
}

TEST(EdfTest, FullUtilisationImplicitDeadlinesSchedulable) {
  // EDF schedules any implicit-deadline set with utilisation <= 1.
  const auto a = edf({et("a", 2, 5, periodic(5)), et("b", 3, 5, periodic(5))});
  EXPECT_TRUE(a.schedulable());
}

TEST(EdfTest, OverUtilisationUnschedulable) {
  const auto a = edf({et("a", 3, 5, periodic(5)), et("b", 3, 5, periodic(5))});
  // The busy-period fixpoint itself diverges at utilisation > 1.
  EXPECT_THROW(a.schedulable(), AnalysisError);
}

TEST(EdfTest, ConstrainedDeadlineDetection) {
  // Same workload, tightening one deadline flips schedulability.
  const auto loose = edf({et("a", 4, 10, periodic(10)), et("b", 4, 10, periodic(10))});
  EXPECT_TRUE(loose.schedulable());
  const auto tight = edf({et("a", 4, 4, periodic(10)), et("b", 4, 4, periodic(10))});
  EXPECT_FALSE(tight.schedulable());
}

TEST(EdfTest, SingleTaskResponseIsItsCet) {
  const auto a = edf({et("t", 7, 20, periodic(50))});
  EXPECT_EQ(a.analyze(0).wcrt, 7);
}

TEST(EdfTest, ShorterDeadlineWinsInterference) {
  // a: C=2 D=4; b: C=6 D=20, both P=20.  b is delayed by a (earlier
  // deadline): R_b = 8.  a is not delayed by b (later deadline): R_a = 2.
  const auto a = edf({et("a", 2, 4, periodic(20)), et("b", 6, 20, periodic(20))});
  EXPECT_EQ(a.analyze(0).wcrt, 2);
  EXPECT_EQ(a.analyze(1).wcrt, 8);
}

TEST(EdfTest, EqualDeadlinesInterfereMutually) {
  const auto a = edf({et("a", 2, 10, periodic(20)), et("b", 3, 10, periodic(20))});
  // Conservative: each may wait for the other.
  EXPECT_EQ(a.analyze(0).wcrt, 5);
  EXPECT_EQ(a.analyze(1).wcrt, 5);
}

TEST(EdfTest, ResponseBoundedByDeadlineWhenSchedulable) {
  const auto a = edf({et("a", 2, 6, periodic(10)), et("b", 3, 9, periodic(12)),
                      et("c", 2, 12, periodic(15))});
  ASSERT_TRUE(a.schedulable());
  for (const auto& r : a.analyze_all()) EXPECT_LE(r.wcrt, 12) << r.name;
}

TEST(EdfTest, JitteredActivationIncreasesDemand) {
  const auto smooth = edf({et("t", 2, 5, periodic(10))});
  const auto jittery = edf({et("t", 2, 5, StandardEventModel::periodic_with_jitter(10, 12))});
  EXPECT_GE(jittery.demand_bound(Time{5}), smooth.demand_bound(Time{5}));
  EXPECT_GE(jittery.analyze(0).wcrt, smooth.analyze(0).wcrt);
}

TEST(EdfTest, ValidationErrors) {
  EXPECT_THROW(edf({}), std::invalid_argument);
  EXPECT_THROW(edf({et("t", 2, 0, periodic(10))}), std::invalid_argument);
  EXPECT_THROW(edf({TaskParams{"t", 0, ExecutionTime(2), nullptr, 0, 5}}),
               std::invalid_argument);
}

TEST(EdfTest, BacklogBoundCountsQueuedBurst) {
  // Two activations can coincide (jitter > period): both are pending at once.
  const auto burst = StandardEventModel::periodic_with_jitter(50, 60);
  const auto a = edf({et("t", 4, 40, burst)});
  EXPECT_EQ(a.analyze(0).backlog, 2);
}

}  // namespace
}  // namespace hem::sched
