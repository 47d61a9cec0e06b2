#include "sched/local_analysis.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams frame(std::string name, int prio, Time c, ModelPtr act) {
  return TaskParams{std::move(name), prio, ExecutionTime(c), std::move(act)};
}

LocalAnalysis can(std::vector<TaskParams> tasks) {
  return LocalAnalysis(Policy::kSpnpCan, std::move(tasks));
}

TEST(CanBusTest, HighestPriorityOnlyBlocks) {
  // Highest-priority frame: blocked by the largest lower-priority frame,
  // then transmits.
  const auto a = can({frame("hi", 1, 4, periodic(250)), frame("lo", 2, 2, periodic(400))});
  const auto r = a.analyze(0);
  EXPECT_EQ(a.blocking(0), 2);
  EXPECT_EQ(r.wcrt, 6);  // B + C = 2 + 4
  EXPECT_EQ(r.bcrt, 4);
}

TEST(CanBusTest, LowestPriorityHasNoBlocking) {
  const auto a = can({frame("hi", 1, 4, periodic(250)), frame("lo", 2, 2, periodic(400))});
  EXPECT_EQ(a.blocking(1), 0);
  // lo: waits for one hi transmission at most (periods long): w = 4, R = 6.
  EXPECT_EQ(a.analyze(1).wcrt, 6);
}

TEST(CanBusTest, PaperBusNumbers) {
  // The paper system's bus: F1 [4:4] high, F2 [2:2] low, activations from
  // Table 1 (the OR-combined trigger streams are slower than any busy
  // window here, so periodic stand-ins with the fastest period are fine).
  const auto a = can({frame("F1", 1, 4, periodic(250)), frame("F2", 2, 2, periodic(400))});
  EXPECT_EQ(a.analyze(0).wcrt, 6);
  EXPECT_EQ(a.analyze(1).wcrt, 6);
}

TEST(CanBusTest, NonPreemptiveInterferenceCountsArrivalDuringQueueing) {
  // lo (C=10, P=100) vs hi (C=10, P=25): lo queues behind repeated hi
  // frames until a gap: w: 10 -> eta_hi(11)*10 = 10 -> w=10;
  // check: w=10: hi arrivals in [0,10]: at 0 only? eta+(11) with P=25 = 1
  // -> w = 10?? With blocking 0 for hi... lo has no blocking (lowest),
  // w(1) = 0 + eta_hi(w+1)*10: w=0: eta(1)=1 -> 10; eta(11)=1 -> 10.
  // R = w + C = 20.
  const auto a = can({frame("hi", 1, 10, periodic(25)), frame("lo", 2, 10, periodic(100))});
  EXPECT_EQ(a.analyze(1).wcrt, 20);
}

TEST(CanBusTest, SaturatedBusStillBoundedWhenUtilisationBelowOne) {
  // hi: C=10, P=20 (50%), mid: C=5, P=25 (20%), lo: C=4, P=50 (8%).
  const auto a = can({frame("hi", 1, 10, periodic(20)), frame("mid", 2, 5, periodic(25)),
                      frame("lo", 3, 4, periodic(50))});
  const auto lo = a.analyze(2);
  EXPECT_GE(lo.wcrt, 19);  // at least one hi + one mid + own
  EXPECT_LT(lo.wcrt, 200);
  // mid is blocked by lo and interfered by hi.
  const auto mid = a.analyze(1);
  EXPECT_GE(mid.wcrt, 4 + 10 + 5);
}

TEST(CanBusTest, BurstTriggersQueueUp) {
  // A frame triggered by a burst of 3: instances serialise.
  const auto burst = StandardEventModel::periodic_with_jitter(300, 700);
  ASSERT_EQ(burst->eta_plus(1), 3);
  const auto a = can({frame("f", 1, 10, burst)});
  const auto r = a.analyze(0);
  EXPECT_EQ(r.wcrt, 30);  // 3rd instance waits for two predecessors
}

TEST(CanBusTest, OverloadThrows) {
  const auto a = can({frame("f", 1, 120, periodic(100))});
  EXPECT_THROW(a.analyze(0), AnalysisError);
}

TEST(CanBusTest, DistinctPrioritiesRequired) {
  EXPECT_THROW(can({frame("a", 1, 1, periodic(10)), frame("b", 1, 1, periodic(10))}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hem::sched
