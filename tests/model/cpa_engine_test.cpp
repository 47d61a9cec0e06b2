#include "model/cpa_engine.hpp"

#include <gtest/gtest.h>

#include "core/errors.hpp"
#include "core/standard_event_model.hpp"
#include "exec/cancel.hpp"

namespace hem::cpa {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TEST(CpaEngineTest, SingleResourceMatchesLocalAnalysis) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto hp = sys.add_task({"hp", cpu, 1, sched::ExecutionTime(2)});
  const auto lp = sys.add_task({"lp", cpu, 2, sched::ExecutionTime(4)});
  sys.activate_external(hp, periodic(5));
  sys.activate_external(lp, periodic(20));
  const auto report = CpaEngine(sys).run();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.task("hp").wcrt, 2);
  EXPECT_EQ(report.task("lp").wcrt, 8);
}

TEST(CpaEngineTest, FeedForwardChainPropagatesJitter) {
  // src -> a (cpu1) -> b (cpu2).  b's activation inherits a's response
  // jitter; its own WCRT equals its CET (alone on cpu2), but activation
  // delta-(2) shrinks.
  System sys;
  const auto cpu1 = sys.add_resource({"cpu1", Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"cpu2", Policy::kSppPreemptive});
  const auto hp = sys.add_task({"hp", cpu1, 1, sched::ExecutionTime(3)});
  const auto a = sys.add_task({"a", cpu1, 2, sched::ExecutionTime(2, 5)});
  const auto b = sys.add_task({"b", cpu2, 1, sched::ExecutionTime(4)});
  sys.activate_external(hp, periodic(10));
  sys.activate_external(a, periodic(50));
  sys.activate_by(b, {a});
  const auto report = CpaEngine(sys).run();
  EXPECT_TRUE(report.converged);
  // a: C in [2,5], one hp interference: wcrt = 5 + 3 = 8, bcrt = 2.
  EXPECT_EQ(report.task("a").wcrt, 8);
  EXPECT_EQ(report.task("a").bcrt, 2);
  EXPECT_EQ(report.task("b").wcrt, 4);
  // b's activation: periodic 50 with jitter 6 (response spread of a).
  EXPECT_EQ(report.task("b").activation->delta_min(2), 44);
  EXPECT_EQ(report.task("b").activation->delta_plus(2), 56);
}

TEST(CpaEngineTest, OrJunctionCombinesProducers) {
  System sys;
  const auto cpu1 = sys.add_resource({"cpu1", Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"cpu2", Policy::kSppPreemptive});
  const auto a = sys.add_task({"a", cpu1, 1, sched::ExecutionTime(1)});
  const auto b = sys.add_task({"b", cpu1, 2, sched::ExecutionTime(1)});
  const auto c = sys.add_task({"c", cpu2, 1, sched::ExecutionTime(2)});
  sys.activate_external(a, periodic(100));
  sys.activate_external(b, periodic(150));
  sys.activate_by(c, {a, b});
  const auto report = CpaEngine(sys).run();
  // c activated at combined rate: in 3000 ticks ~ 30+20 events.
  const auto& act = report.task("c").activation;
  EXPECT_GE(act->eta_plus(3001), 50);
  EXPECT_EQ(report.task("c").wcrt, 4);  // two simultaneous activations possible
}

TEST(CpaEngineTest, PackedFrameAndUnpackedReceivers) {
  System sys;
  const auto bus = sys.add_resource({"bus", Policy::kSpnpCan});
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto f = sys.add_task({"f", bus, 1, sched::ExecutionTime(4)});
  const auto rx = sys.add_task({"rx", cpu, 1, sched::ExecutionTime(10)});
  sys.activate_packed(f, {{periodic(100), SignalCoupling::kTriggering},
                          {periodic(400), SignalCoupling::kPending}});
  sys.activate_unpacked(rx, f, 1);
  const auto report = CpaEngine(sys).run();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.task("f").wcrt, 4);
  // rx sees the pending inner stream: roughly one activation per 400 ticks.
  EXPECT_LE(report.task("rx").activation->eta_plus(4000), 12);
  ASSERT_NE(report.task("f").hem_output, nullptr);
  EXPECT_EQ(report.task("rx").hem_output, nullptr);
  // The transmitted frame keeps one inner stream per packed input, and the
  // pending one still has no upper distance bound after the bus hop.
  ASSERT_EQ(report.task("f").hem_output->inner_count(), 2u);
  EXPECT_TRUE(is_infinite(report.task("f").hem_output->inner(1)->delta_plus(2)));
}

TEST(CpaEngineTest, OverloadDetected) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(120)});
  sys.activate_external(t, periodic(100));
  // Graceful default: the run completes with fallback bounds and a
  // resource-overload diagnostic instead of throwing.
  const auto report = CpaEngine(sys).run();
  EXPECT_EQ(report.task("t").status, TaskStatus::kOverloaded);
  EXPECT_TRUE(is_infinite(report.task("t").wcrt));
  EXPECT_TRUE(report.degraded());
  EXPECT_TRUE(report.diagnostics.has_errors());
  // Strict mode restores the classic throw.
  EngineOptions strict;
  strict.strict = true;
  EXPECT_THROW((void)CpaEngine(sys, strict).run(), AnalysisError);
}

TEST(CpaEngineTest, JitteredLoadBelowOneIsNotOverloaded) {
  // Exact long-run load 2 * 40653/100000 + 230/8000 + 76/800 = 0.937, so
  // every busy window converges.  A 10^6-tick rate sample charges each
  // jittered 40653-tick task ceil((10^6 + 9752) / 10^5) = 11 events and
  // read 1.018: a false overload with infinite bounds.  (hemfuzz seed 23
  // variant 4, shrunk.)
  System sys;
  const auto rr = sys.add_resource({"rr", Policy::kRoundRobin});
  const auto a = sys.add_task({"a", rr, 0, sched::ExecutionTime(20326, 40653), 40653});
  const auto b = sys.add_task({"b", rr, 2, sched::ExecutionTime(115, 230), 230});
  const auto c = sys.add_task({"c", rr, 3, sched::ExecutionTime(38, 76), 76});
  const auto d = sys.add_task({"d", rr, 0, sched::ExecutionTime(20326, 40653), 40653});
  const ModelPtr s0 = StandardEventModel::periodic_with_jitter(100000, 9752);
  sys.activate_external(a, s0);
  sys.activate_external(b, periodic(8000));
  sys.activate_external(c, periodic(800));
  sys.activate_external(d, s0);
  EngineOptions strict;
  strict.strict = true;
  const auto report = CpaEngine(sys, strict).run();
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.task("a").wcrt, 81612);
  EXPECT_EQ(report.task("b").wcrt, 81612);
  EXPECT_EQ(report.task("c").wcrt, 109104);
  EXPECT_EQ(report.task("d").wcrt, 81612);
}

TEST(CpaEngineTest, ExactLoadOneIsLeftToTheBusyWindowLimits) {
  // Load exactly 1 with jitter: the pre-check does not flag it (a sampled
  // rate reads 1.00001 and did), and the busy window then grows without
  // bound until its limits stop it.
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(10)});
  sys.activate_external(t, StandardEventModel::periodic_with_jitter(10, 5));
  const auto report = CpaEngine(sys).run();
  EXPECT_TRUE(is_infinite(report.task("t").wcrt));
  ASSERT_FALSE(report.diagnostics.empty());
  bool window_limit = false;
  for (const Diagnostic& diag : report.diagnostics.entries()) {
    EXPECT_NE(diag.code, DiagCode::kResourceOverload) << diag.detail;
    window_limit = window_limit || diag.code == DiagCode::kBusyWindowDivergence ||
                   diag.code == DiagCode::kBusyWindowBudget;
  }
  EXPECT_TRUE(window_limit) << report.diagnostics.format();
}

TEST(CpaEngineTest, ReportsUtilization) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(25)});
  sys.activate_external(t, periodic(100));
  const auto report = CpaEngine(sys).run();
  EXPECT_NEAR(report.task("t").utilization, 0.25, 0.01);
}

TEST(CpaEngineTest, MixedPoliciesInOneSystem) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto rr = sys.add_resource({"rr", Policy::kRoundRobin});
  const auto tdma = sys.add_resource({"tdma", Policy::kTdma, 20});
  const auto a = sys.add_task({"a", cpu, 1, sched::ExecutionTime(2)});
  TaskSpec b_spec{"b", rr, 0, sched::ExecutionTime(3)};
  b_spec.slot = 3;
  const auto b = sys.add_task(b_spec);
  TaskSpec c_spec{"c", tdma, 0, sched::ExecutionTime(4)};
  c_spec.slot = 5;
  const auto c = sys.add_task(c_spec);
  sys.activate_external(a, periodic(50));
  sys.activate_by(b, {a});
  sys.activate_by(c, {b});
  const auto report = CpaEngine(sys).run();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.task("b").wcrt, 3);       // alone on its RR resource
  EXPECT_EQ(report.task("c").wcrt, 15 + 4);  // TDMA worst alignment: gap 15 + C 4
}

TEST(CpaEngineTest, SemPropagationIsLossyButSound) {
  // src -> a (bursty interference) -> b: with propagate_fitted_sem the
  // downstream WCRT may only grow (the fit over-approximates).
  System sys;
  const auto cpu1 = sys.add_resource({"cpu1", Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"cpu2", Policy::kSppPreemptive});
  const auto hp1 = sys.add_task({"hp1", cpu1, 1, sched::ExecutionTime(3)});
  const auto a1 = sys.add_task({"a1", cpu1, 2, sched::ExecutionTime(1)});
  const auto a2 = sys.add_task({"a2", cpu1, 3, sched::ExecutionTime(1)});
  const auto b = sys.add_task({"b", cpu2, 2, sched::ExecutionTime(9)});
  sys.activate_external(hp1, periodic(10));
  sys.activate_external(a1, periodic(40));
  sys.activate_external(a2, periodic(70));
  sys.activate_by(b, {a1, a2});  // OR of two outputs: not SEM-shaped

  EngineOptions exact;
  EngineOptions fitted;
  fitted.propagate_fitted_sem = true;
  const Time wcrt_exact = CpaEngine(sys, exact).run().task("b").wcrt;
  const Time wcrt_fitted = CpaEngine(sys, fitted).run().task("b").wcrt;
  EXPECT_GE(wcrt_fitted, wcrt_exact);
}

TEST(CpaEngineTest, BacklogReported) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(10)});
  sys.activate_external(t, StandardEventModel::periodic_with_jitter(100, 250));
  const auto report = CpaEngine(sys).run();
  EXPECT_EQ(report.task("t").backlog, 3);
  EXPECT_NE(report.format().find("queue"), std::string::npos);
}

TEST(CpaEngineTest, CancelRethrowsEvenInGracefulMode) {
  // Cancellation is an operator decision, not an analysis hazard: graceful
  // degradation must never swallow it into fallback bounds.
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(5)});
  sys.activate_external(t, periodic(100));
  exec::CancelToken token;
  token.cancel(exec::CancelReason::kUser);
  EngineOptions graceful;  // strict = false: would degrade any other error
  graceful.cancel = &token;
  try {
    (void)CpaEngine(sys, graceful).run();
    FAIL() << "expected AnalysisError(kCancelled)";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos) << e.what();
  }
}

TEST(CpaEngineTest, UncancelledTokenDoesNotPerturbResults) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(5)});
  sys.activate_external(t, periodic(100));
  exec::CancelToken token;
  EngineOptions opts;
  opts.cancel = &token;
  const auto report = CpaEngine(sys, opts).run();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.task("t").wcrt, 5);
}

TEST(CpaEngineTest, FormatProducesTable) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(5)});
  sys.activate_external(t, periodic(100));
  const auto report = CpaEngine(sys).run();
  const std::string text = report.format();
  EXPECT_NE(text.find("task"), std::string::npos);
  EXPECT_NE(text.find("t"), std::string::npos);
  EXPECT_NE(text.find("converged"), std::string::npos);
}

}  // namespace
}  // namespace hem::cpa
