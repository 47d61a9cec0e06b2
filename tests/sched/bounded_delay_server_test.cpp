#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"
#include "sched/local_analysis.hpp"
#include "sched/resource_server.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams task(std::string name, int prio, Time cet, ModelPtr act) {
  return TaskParams{std::move(name), prio, ExecutionTime(cet), std::move(act)};
}

TEST(BoundedDelayServerTest, SbfShape) {
  // Delay 10, rate 1/2.
  const BoundedDelayServer s(10, 1, 2);
  EXPECT_EQ(s.sbf(10), 0);
  EXPECT_EQ(s.sbf(11), 0);  // (11-10)/2 floors to 0
  EXPECT_EQ(s.sbf(12), 1);
  EXPECT_EQ(s.sbf(30), 10);
  EXPECT_DOUBLE_EQ(s.utilization(), 0.5);
}

TEST(BoundedDelayServerTest, InverseIsExact) {
  const BoundedDelayServer s(7, 3, 5);
  for (Time demand = 1; demand <= 60; ++demand) {
    const Time t = s.sbf_inverse(demand);
    EXPECT_GE(s.sbf(t), demand) << demand;
    EXPECT_LT(s.sbf(t - 1), demand) << demand;
  }
}

TEST(BoundedDelayServerTest, FullRateZeroDelayIsTransparent) {
  const BoundedDelayServer s(0, 1, 1);
  for (Time t = 0; t <= 50; ++t) EXPECT_EQ(s.sbf(t), t);
  EXPECT_EQ(s.sbf_inverse(37), 37);
}

TEST(BoundedDelayServerTest, PeriodicConformsToItsBoundedDelayAbstraction) {
  // sbf of the periodic server dominates its bounded-delay abstraction.
  const PeriodicServer ps(10, 3);
  const BoundedDelayServer bd = BoundedDelayServer::from_periodic(ps);
  EXPECT_EQ(bd.delay(), 14);
  for (Time t = 0; t <= 300; ++t) EXPECT_GE(ps.sbf(t), bd.sbf(t)) << t;
}

TEST(BoundedDelayServerTest, AnalysisCoarserButSound) {
  // The same task set under the periodic server and its bounded-delay
  // abstraction: the abstraction gives larger (but finite) responses.
  const std::vector<TaskParams> tasks{task("a", 1, 2, periodic(40)),
                                      task("b", 2, 3, periodic(80))};
  const LocalAnalysis exact(std::make_shared<PeriodicServer>(20, 8), tasks);
  const LocalAnalysis coarse(
      std::make_shared<BoundedDelayServer>(
          BoundedDelayServer::from_periodic(PeriodicServer(20, 8))),
      tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_GE(coarse.analyze(i).wcrt, exact.analyze(i).wcrt) << i;
    EXPECT_LT(coarse.analyze(i).wcrt, 200) << i;
  }
}

TEST(BoundedDelayServerTest, ValidationErrors) {
  EXPECT_THROW(BoundedDelayServer(-1, 1, 2), std::invalid_argument);
  EXPECT_THROW(BoundedDelayServer(5, 0, 2), std::invalid_argument);
  EXPECT_THROW(BoundedDelayServer(5, 3, 2), std::invalid_argument);
  EXPECT_THROW(LocalAnalysis(SupplyPtr{}, {task("t", 1, 1, periodic(10))}),
               std::invalid_argument);
}

TEST(BoundedDelayServerTest, DescribeIsInformative) {
  EXPECT_NE(BoundedDelayServer(7, 3, 5).describe().find("Delta=7"), std::string::npos);
  EXPECT_NE(PeriodicServer(10, 3).describe().find("Pi=10"), std::string::npos);
}

}  // namespace
}  // namespace hem::sched
