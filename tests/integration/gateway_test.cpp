// Multi-hop stream hierarchies: frames unpacked at a gateway and repacked
// onto a second bus.  Checks that hierarchical models survive arbitrary
// operation chains soundly.

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"
#include "model/cpa_engine.hpp"
#include "model/system.hpp"
#include "sched/local_analysis.hpp"

namespace hem::cpa {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

System build_gateway(Time fast_period, Time slow_period) {
  System sys;
  const auto can_a = sys.add_resource({"CAN_A", Policy::kSpnpCan});
  const auto can_b = sys.add_resource({"CAN_B", Policy::kSpnpCan});
  const auto gw = sys.add_resource({"GW", Policy::kSppPreemptive});
  const auto ecu = sys.add_resource({"ECU", Policy::kSppPreemptive});

  const auto fa = sys.add_task({"FA", can_a, 1, sched::ExecutionTime(4)});
  sys.activate_packed(fa, {{periodic(fast_period), SignalCoupling::kTriggering},
                           {periodic(slow_period), SignalCoupling::kPending}});

  const auto gw_fast = sys.add_task({"gw_fast", gw, 1, sched::ExecutionTime(5, 8)});
  const auto gw_slow = sys.add_task({"gw_slow", gw, 2, sched::ExecutionTime(6, 12)});
  sys.activate_unpacked(gw_fast, fa, 0);
  sys.activate_unpacked(gw_slow, fa, 1);

  const auto fb = sys.add_task({"FB", can_b, 1, sched::ExecutionTime(5)});
  sys.activate_packed(fb, {{gw_fast, SignalCoupling::kTriggering},
                           {gw_slow, SignalCoupling::kPending}});

  const auto rx_fast = sys.add_task({"rx_fast", ecu, 1, sched::ExecutionTime(10)});
  const auto rx_slow = sys.add_task({"rx_slow", ecu, 2, sched::ExecutionTime(30)});
  sys.activate_unpacked(rx_fast, fb, 0);
  sys.activate_unpacked(rx_slow, fb, 1);
  return sys;
}

TEST(GatewayTest, TwoHopSystemConverges) {
  const auto report = CpaEngine(build_gateway(200, 1500)).run();
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.iterations, 2);  // feed-forward depth needs > 2 rounds
}

TEST(GatewayTest, FinalReceiversSeePerSignalRates) {
  const auto report = CpaEngine(build_gateway(200, 1500)).run();
  // rx_fast ~ once per 200 ticks, rx_slow ~ once per 1500 ticks, FB frames
  // ~ once per 200 (only the fast stream triggers FB).
  EXPECT_NEAR(static_cast<double>(report.task("rx_fast").activation->eta_plus(30'000)),
              30'000.0 / 200.0, 3.0);
  EXPECT_NEAR(static_cast<double>(report.task("rx_slow").activation->eta_plus(30'000)),
              30'000.0 / 1500.0, 3.0);
}

TEST(GatewayTest, JitterAccumulatesAcrossHops) {
  const auto report = CpaEngine(build_gateway(200, 1500)).run();
  // Each hop widens the fast stream's delta window.
  const Time source_gap = 200;
  const Time after_gw = report.task("gw_fast").output->delta_min(2);
  const Time at_rx = report.task("rx_fast").activation->delta_min(2);
  EXPECT_LT(after_gw, source_gap);
  EXPECT_LE(at_rx, after_gw);
  EXPECT_GT(at_rx, 0);
}

TEST(GatewayTest, PendingStaysPendingThroughRepacking) {
  const auto report = CpaEngine(build_gateway(200, 1500)).run();
  EXPECT_TRUE(is_infinite(report.task("rx_slow").activation->delta_plus(2)));
}

TEST(GatewayTest, SlowerSourcesOnlyReduceLoad) {
  const auto fast = CpaEngine(build_gateway(200, 1500)).run();
  const auto slow = CpaEngine(build_gateway(400, 3000)).run();
  EXPECT_LE(slow.task("rx_slow").wcrt, fast.task("rx_slow").wcrt);
  EXPECT_LE(slow.task("FB").wcrt, fast.task("FB").wcrt);
}

TEST(CyclicSystemTest, CycleEitherConvergesOrThrowsCleanly) {
  // a (cpu1) -> b (cpu2) -> feeds back as interference-relevant producer of
  // a's OR activation.  The engine must terminate: fixpoint or
  // AnalysisError, never a hang.
  System sys;
  const auto cpu1 = sys.add_resource({"cpu1", Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"cpu2", Policy::kSppPreemptive});
  const auto a = sys.add_task({"a", cpu1, 1, sched::ExecutionTime(2)});
  const auto b = sys.add_task({"b", cpu2, 1, sched::ExecutionTime(3)});
  sys.activate_by(b, {a});
  // a is activated by an external source OR b's output: a cyclic stream.
  const auto src = sys.add_task({"src", cpu2, 2, sched::ExecutionTime(1)});
  sys.activate_external(src, StandardEventModel::periodic(100));
  sys.activate_by(a, {src, b});
  const auto report = CpaEngine(sys).run();
  if (!report.converged) {
    // Graceful divergence: the affected tasks must carry degraded statuses
    // with unbounded fallback WCRTs instead of unsound last-iteration values.
    EXPECT_TRUE(report.degraded());
    EXPECT_TRUE(report.diagnostics.has_errors());
    for (const auto& t : report.tasks)
      if (t.degraded() && t.status != TaskStatus::kDegradedUpstream)
        EXPECT_TRUE(is_infinite(t.wcrt)) << t.name;
  }
}

TEST(BacklogTest, SppBacklogBoundsQueueing) {
  // A burst of 3 simultaneous activations on an otherwise idle CPU: the
  // queue holds 3 jobs at the burst instant, draining one at a time.
  const auto burst = StandardEventModel::periodic_with_jitter(100, 250);
  sched::LocalAnalysis a(Policy::kSppPreemptive,
                        {sched::TaskParams{"t", 1, sched::ExecutionTime(10), burst}});
  const auto r = a.analyze(0);
  EXPECT_EQ(r.backlog, 3);
  // A strictly periodic task never queues more than one activation.
  sched::LocalAnalysis b(Policy::kSppPreemptive,
                        {sched::TaskParams{"p", 1, sched::ExecutionTime(10),
                                           StandardEventModel::periodic(100)}});
  EXPECT_EQ(b.analyze(0).backlog, 1);
}

TEST(BacklogTest, CanBacklogCountsQueuedFrames) {
  const auto burst = StandardEventModel::periodic_with_jitter(300, 700);
  sched::LocalAnalysis a(Policy::kSpnpCan,
                        {sched::TaskParams{"f", 1, sched::ExecutionTime(10), burst}});
  EXPECT_EQ(a.analyze(0).backlog, 3);
}

}  // namespace
}  // namespace hem::cpa
