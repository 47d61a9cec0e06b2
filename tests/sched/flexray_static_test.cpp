#include "sched/local_analysis.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"
#include "hierarchical/pack_constructor.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams ff(std::string name, Time cet, ModelPtr act) {
  return TaskParams{std::move(name), 0, ExecutionTime(cet), std::move(act)};
}

LocalAnalysis flexray(std::vector<TaskParams> frames, Time cycle, Time slot_length) {
  return LocalAnalysis(Policy::kFlexRayStatic, std::move(frames), {}, cycle, slot_length);
}

TEST(FlexRayStaticTest, SingleActivationWaitsOneCycle) {
  // Cycle 50, slot 10, C 8, sparse activations: just-missed-slot worst case.
  const LocalAnalysis a = flexray({ff("f", 8, periodic(500))}, 50, 10);
  const auto r = a.analyze(0);
  EXPECT_EQ(r.wcrt, 58);  // cycle + C
  EXPECT_EQ(r.bcrt, 8);
  EXPECT_EQ(r.activations, 1);
}

TEST(FlexRayStaticTest, BacklogDrainsOnePerCycle) {
  // Burst of 3 activations: the 3rd transmits in the 3rd cycle.
  const auto burst = StandardEventModel::periodic_with_jitter(300, 700);
  ASSERT_EQ(burst->eta_plus(1), 3);
  const LocalAnalysis a = flexray({ff("f", 8, burst)}, 50, 10);
  const auto r = a.analyze(0);
  EXPECT_EQ(r.wcrt, 3 * 50 + 8);
  EXPECT_EQ(r.backlog, 3);
}

TEST(FlexRayStaticTest, FramesAreIsolated) {
  const LocalAnalysis alone = flexray({ff("f", 8, periodic(500))}, 50, 10);
  const LocalAnalysis crowded = flexray(
      {ff("f", 8, periodic(500)), ff("noisy", 10, periodic(60))}, 50, 10);
  EXPECT_EQ(alone.analyze(0).wcrt, crowded.analyze(0).wcrt);
}

TEST(FlexRayStaticTest, OverRateFrameRejectedAtAnalysis) {
  // Activations every 30 but only one slot per 50-cycle: diverges.
  const LocalAnalysis a = flexray({ff("f", 8, periodic(30))}, 50, 10);
  EXPECT_THROW(a.analyze(0), AnalysisError);
}

TEST(FlexRayStaticTest, ValidationErrors) {
  EXPECT_THROW(flexray({}, 50, 10), std::invalid_argument);
  EXPECT_THROW(flexray({ff("f", 20, periodic(100))}, 50, 10),
               std::invalid_argument);  // C > slot
  EXPECT_THROW(flexray({ff("f", 5, periodic(100))}, 50, 60),
               std::invalid_argument);  // slot > cycle
  EXPECT_THROW(flexray({ff("f", 5, nullptr)}, 50, 10), std::invalid_argument);
}

TEST(FlexRayStaticTest, HemPacksAcrossFlexRayToo) {
  // The hierarchical model is bus-agnostic: pack signals, analyse the
  // frame on FlexRay, apply the response interval, unpack.
  const auto hem = pack({{periodic(200), SignalCoupling::kTriggering},
                         {periodic(1000), SignalCoupling::kPending}});
  const LocalAnalysis bus = flexray({ff("f", 8, hem->outer())}, 50, 10);
  const auto rt = bus.analyze(0);
  const auto out = hem->after_response(rt.bcrt, rt.wcrt);
  // The pending receiver still sees its own rate, not the frame rate.
  EXPECT_LE(out->inner(1)->eta_plus(10'000), 12);
  EXPECT_GE(out->outer()->eta_plus(10'000), 45);
}

}  // namespace
}  // namespace hem::sched
