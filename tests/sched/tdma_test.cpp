#include "sched/local_analysis.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams tt(std::string name, Time cet, Time slot, ModelPtr act) {
  return TaskParams{std::move(name), 0, ExecutionTime(cet), std::move(act), slot};
}

LocalAnalysis tdma(std::vector<TaskParams> tasks, Time cycle) {
  return LocalAnalysis(Policy::kTdma, std::move(tasks), {}, cycle);
}

TEST(TdmaTest, ServiceCurveShape) {
  // slot 2, cycle 10: worst alignment sees (gap 8, slot 2, gap 8, ...).
  const LocalAnalysis a = tdma({tt("t", 1, 2, periodic(100))}, 10);
  EXPECT_EQ(a.service(0, 0), 0);
  EXPECT_EQ(a.service(0, 8), 0);
  EXPECT_EQ(a.service(0, 9), 1);
  EXPECT_EQ(a.service(0, 10), 2);
  EXPECT_EQ(a.service(0, 18), 2);
  EXPECT_EQ(a.service(0, 19), 3);
  EXPECT_EQ(a.service(0, 20), 4);
}

TEST(TdmaTest, ServiceInverseIsExactInverse) {
  const LocalAnalysis a = tdma({tt("t", 1, 2, periodic(100))}, 10);
  for (Time demand = 1; demand <= 40; ++demand) {
    const Time t = a.service_inverse(0, demand);
    EXPECT_GE(a.service(0, t), demand) << "demand=" << demand;
    EXPECT_LT(a.service(0, t - 1), demand) << "demand=" << demand;
  }
}

TEST(TdmaTest, ResponseIncludesSlotWaiting) {
  // C=3, slot=2, cycle=10: needs 2 slots; worst case waits 8, executes 2,
  // waits 8, executes 1 -> 19.
  const LocalAnalysis a = tdma({tt("t", 3, 2, periodic(100))}, 10);
  EXPECT_EQ(a.analyze(0).wcrt, 19);
}

TEST(TdmaTest, IsolationFromOtherTasks) {
  // TDMA fully isolates: adding tasks in other slots changes nothing.
  const LocalAnalysis alone = tdma({tt("t", 3, 2, periodic(100))}, 10);
  const LocalAnalysis crowded =
      tdma({tt("t", 3, 2, periodic(100)), tt("noisy", 7, 7, periodic(9))}, 10);
  EXPECT_EQ(alone.analyze(0).wcrt, crowded.analyze(0).wcrt);
}

TEST(TdmaTest, BestCaseStartsInOwnSlot) {
  const LocalAnalysis a = tdma({tt("t", 3, 2, periodic(100))}, 10);
  // Best case: 2 ticks in first slot, gap 8, 1 tick -> 11.
  EXPECT_EQ(a.analyze(0).bcrt, 11);
}

TEST(TdmaTest, SlotLargerThanDemandIsSingleWait) {
  const LocalAnalysis a = tdma({tt("t", 2, 2, periodic(100))}, 10);
  // Wait out the gap (8) then run 2 -> 10.
  EXPECT_EQ(a.analyze(0).wcrt, 10);
}

TEST(TdmaTest, ValidationErrors) {
  EXPECT_THROW(tdma({}, 10), std::invalid_argument);
  EXPECT_THROW(tdma({tt("t", 1, 0, periodic(10))}, 10), std::invalid_argument);
  EXPECT_THROW(tdma({tt("a", 1, 6, periodic(10)), tt("b", 1, 6, periodic(10))}, 10),
               std::invalid_argument);
}

TEST(TdmaTest, BacklogAcrossActivations) {
  // Demand faster than the slot bandwidth within a burst: the busy period
  // covers several activations.
  const auto burst = StandardEventModel::periodic_with_jitter(50, 60);
  const LocalAnalysis a = tdma({tt("t", 4, 4, burst)}, 10);
  const auto r = a.analyze(0);
  EXPECT_GE(r.activations, 2);
  EXPECT_GT(r.wcrt, 10);
}

TEST(TdmaTest, BacklogBoundCountsQueuedBurst) {
  // Two activations can coincide (jitter > period); the first completes
  // at 10, so both are pending at once.
  const auto burst = StandardEventModel::periodic_with_jitter(50, 60);
  const LocalAnalysis a = tdma({tt("t", 4, 4, burst)}, 10);
  EXPECT_EQ(a.analyze(0).backlog, 2);
}

}  // namespace
}  // namespace hem::sched
