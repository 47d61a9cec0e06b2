#include "sched/resource_server.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"
#include "sched/local_analysis.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams task(std::string name, int prio, Time cet, ModelPtr act) {
  return TaskParams{std::move(name), prio, ExecutionTime(cet), std::move(act)};
}

SupplyPtr server(Time pi, Time theta) { return std::make_shared<PeriodicServer>(pi, theta); }

TEST(PeriodicServerTest, SbfBlackoutAndSlope) {
  const PeriodicServer s(10, 2);  // gap 8, blackout 16
  EXPECT_EQ(s.sbf(0), 0);
  EXPECT_EQ(s.sbf(16), 0);
  EXPECT_EQ(s.sbf(17), 1);
  EXPECT_EQ(s.sbf(18), 2);
  EXPECT_EQ(s.sbf(26), 2);
  EXPECT_EQ(s.sbf(28), 4);
}

TEST(PeriodicServerTest, SbfInverseIsExactInverse) {
  const PeriodicServer s(10, 3);
  for (Time demand = 1; demand <= 50; ++demand) {
    const Time t = s.sbf_inverse(demand);
    EXPECT_GE(s.sbf(t), demand) << demand;
    EXPECT_LT(s.sbf(t - 1), demand) << demand;
  }
}

TEST(PeriodicServerTest, FullBandwidthServerIsTransparent) {
  const PeriodicServer s(10, 10);
  for (Time t = 0; t <= 100; t += 7) EXPECT_EQ(s.sbf(t), t);
  EXPECT_EQ(s.sbf_inverse(42), 42);
}

TEST(PeriodicServerTest, RejectsBadParameters) {
  EXPECT_THROW(PeriodicServer(0, 1), std::invalid_argument);
  EXPECT_THROW(PeriodicServer(10, 0), std::invalid_argument);
  EXPECT_THROW(PeriodicServer(10, 11), std::invalid_argument);
}

TEST(ServerSppTest, FullBandwidthServerMatchesPlainSpp) {
  const std::vector<TaskParams> tasks{task("hp", 1, 2, periodic(5)),
                                      task("lp", 2, 4, periodic(20))};
  const LocalAnalysis under_server(server(50, 50), tasks);
  const LocalAnalysis plain(Policy::kSppPreemptive, tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(under_server.analyze(i).wcrt, plain.analyze(i).wcrt) << i;
}

TEST(ServerSppTest, ThrottledServerSlowsTasks) {
  const std::vector<TaskParams> tasks{task("t", 1, 4, periodic(100))};
  const LocalAnalysis half(server(10, 5), tasks);
  const LocalAnalysis full(server(10, 10), tasks);
  EXPECT_GT(half.analyze(0).wcrt, full.analyze(0).wcrt);
  // Worst case under (10, 5): blackout 10, then 4 ticks of the next slot:
  // sbf_inverse(4) = gap + 0*Pi + gap + 4 = 5 + 5 + 4 = 14.
  EXPECT_EQ(half.analyze(0).wcrt, 14);
}

TEST(ServerSppTest, HierarchyComposesWithParentSpp) {
  // Two servers on one CPU, each hosting tasks.  Parent level: servers as
  // periodic tasks; child level: server SPP analysis.
  const PeriodicServer s1(20, 8);
  const PeriodicServer s2(20, 6);
  // Parent schedulability: utilisation 8/20 + 6/20 < 1 and the low-priority
  // "server task" meets its period.
  LocalAnalysis parent(Policy::kSppPreemptive,
                       {task("srv1", 1, 8, periodic(20)), task("srv2", 2, 6, periodic(20))});
  EXPECT_LE(parent.analyze(0).wcrt, 20);
  EXPECT_LE(parent.analyze(1).wcrt, 20);

  const LocalAnalysis child1(std::make_shared<PeriodicServer>(s1),
                             {task("a", 1, 2, periodic(40)), task("b", 2, 3, periodic(80))});
  const auto ra = child1.analyze(0);
  const auto rb = child1.analyze(1);
  EXPECT_GT(ra.wcrt, 2);   // server gaps visible
  EXPECT_LT(ra.wcrt, 40);  // still schedulable within its period
  EXPECT_GT(rb.wcrt, ra.wcrt);
}

TEST(ServerSppTest, OverloadedServerThrows) {
  // Demand 6 per 10 into a server supplying 2 per 10.
  const LocalAnalysis a(server(10, 2), {task("t", 1, 6, periodic(10))});
  EXPECT_THROW(a.analyze(0), AnalysisError);
}

TEST(ServerSppTest, BacklogBoundCountsQueuedBurst) {
  // Two activations can coincide (jitter > period); under the (10, 5)
  // server the first completes at 14 and the second at 23, so both are
  // pending when the second arrives.
  const auto burst = StandardEventModel::periodic_with_jitter(50, 60);
  const LocalAnalysis a(server(10, 5), {task("t", 1, 4, burst)});
  const auto r = a.analyze(0);
  EXPECT_EQ(r.wcrt, 23);
  EXPECT_EQ(r.backlog, 2);
}

}  // namespace
}  // namespace hem::sched
