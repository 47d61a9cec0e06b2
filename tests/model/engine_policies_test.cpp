// Engine coverage for the FlexRay-static and EDF resource policies,
// including the textual configuration front-end.

#include <gtest/gtest.h>

#include <sstream>

#include "core/standard_event_model.hpp"
#include "model/cpa_engine.hpp"
#include "model/textual_config.hpp"
#include "sched/local_analysis.hpp"

namespace hem::cpa {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TEST(EnginePoliciesTest, FlexRayResourceMatchesLocalAnalysis) {
  System sys;
  const auto fr = sys.add_resource({"FR", Policy::kFlexRayStatic, 50, 10});
  const auto f = sys.add_task({"f", fr, 1, sched::ExecutionTime(8)});
  sys.activate_external(f, periodic(500));
  const auto report = CpaEngine(sys).run();
  EXPECT_EQ(report.task("f").wcrt, 58);  // cycle + C

  sched::LocalAnalysis local(
      Policy::kFlexRayStatic,
      {sched::TaskParams{"f", 1, sched::ExecutionTime(8), periodic(500)}}, {}, 50, 10);
  EXPECT_EQ(report.task("f").wcrt, local.analyze(0).wcrt);
}

TEST(EnginePoliciesTest, FlexRayFeedsDownstreamTasks) {
  System sys;
  const auto fr = sys.add_resource({"FR", Policy::kFlexRayStatic, 50, 10});
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto f = sys.add_task({"f", fr, 1, sched::ExecutionTime(8)});
  const auto rx = sys.add_task({"rx", cpu, 1, sched::ExecutionTime(5)});
  sys.activate_packed(f, {{periodic(500), SignalCoupling::kTriggering}});
  sys.activate_unpacked(rx, f, 0);
  const auto report = CpaEngine(sys).run();
  EXPECT_TRUE(report.converged);
  // The signal is delayed by up to one FlexRay cycle: inner delta- shrinks.
  EXPECT_LT(report.task("rx").activation->delta_min(2), 500);
  EXPECT_GE(report.task("rx").activation->delta_min(2), 500 - (58 - 8) - 8);
}

TEST(EnginePoliciesTest, EdfResourceMatchesLocalAnalysis) {
  System sys;
  const auto edf = sys.add_resource({"edf", Policy::kEdf});
  TaskSpec a{"a", edf, 0, sched::ExecutionTime(2)};
  a.deadline = 4;
  TaskSpec b{"b", edf, 0, sched::ExecutionTime(6)};
  b.deadline = 20;
  const auto ta = sys.add_task(a);
  const auto tb = sys.add_task(b);
  sys.activate_external(ta, periodic(20));
  sys.activate_external(tb, periodic(20));
  const auto report = CpaEngine(sys).run();
  EXPECT_EQ(report.task("a").wcrt, 2);
  EXPECT_EQ(report.task("b").wcrt, 8);
}

TEST(EnginePoliciesTest, EdfWithoutDeadlineRejected) {
  System sys;
  const auto edf = sys.add_resource({"edf", Policy::kEdf});
  const auto t = sys.add_task({"t", edf, 0, sched::ExecutionTime(2)});
  sys.activate_external(t, periodic(20));
  EXPECT_THROW(CpaEngine(sys).run(), std::invalid_argument);
}

TEST(EnginePoliciesTest, FlexRayResourceValidation) {
  System sys;
  EXPECT_THROW(sys.add_resource({"FR", Policy::kFlexRayStatic, 0, 10}),
               std::invalid_argument);
  EXPECT_THROW(sys.add_resource({"FR", Policy::kFlexRayStatic, 50, 0}),
               std::invalid_argument);
  EXPECT_THROW(sys.add_resource({"FR", Policy::kFlexRayStatic, 50, 60}),
               std::invalid_argument);
}

TEST(EnginePoliciesTest, ConfigFrontEnd) {
  std::istringstream in(R"(
resource FR flexray cycle=50 slot=10
resource CPU edf
source s periodic period=500
source fast periodic period=30
task f resource=FR priority=1 cet=8
task a resource=CPU priority=0 cet=5 deadline=15
task b resource=CPU priority=0 cet=9 deadline=30
activate f from=s
activate a from=fast
activate b from=s
)");
  const auto parsed = parse_system_config(in);
  const auto report = CpaEngine(parsed.system).run();
  EXPECT_EQ(report.task("f").wcrt, 58);
  EXPECT_LE(report.task("a").wcrt, 15);
  EXPECT_LE(report.task("b").wcrt, 30);
}

TEST(EnginePoliciesTest, ConfigRejectsBadFlexRay) {
  std::istringstream in("resource FR flexray cycle=50\n");
  EXPECT_THROW(parse_system_config(in), std::invalid_argument);
}

}  // namespace
}  // namespace hem::cpa
