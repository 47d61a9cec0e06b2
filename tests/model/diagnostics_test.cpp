#include "model/diagnostics.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "core/standard_event_model.hpp"
#include "model/cpa_engine.hpp"
#include "model/sensitivity.hpp"
#include "sched/busy_window.hpp"

namespace hem::cpa {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

/// Degenerate stream with unbounded simultaneity (delta == 0 everywhere).
class UnboundedBurst final : public EventModel {
 public:
  [[nodiscard]] std::string describe() const override { return "unbounded-burst"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count) const override { return 0; }
  [[nodiscard]] Time delta_plus_raw(Count) const override { return 0; }
};

// ---- DiagnosticSink -------------------------------------------------------

TEST(DiagnosticSinkTest, DeduplicatesByCodeAndEntity) {
  DiagnosticSink sink;
  sink.report({Severity::kError, DiagCode::kResourceOverload, "cpu", "first", 1});
  sink.report({Severity::kError, DiagCode::kResourceOverload, "cpu", "second", 2});
  sink.report({Severity::kWarning, DiagCode::kDegradedUpstream, "t", "taint", 2});
  ASSERT_EQ(sink.entries().size(), 2u);
  EXPECT_EQ(sink.entries()[0].detail, "second");  // replaced in place
  EXPECT_EQ(sink.entries()[0].iteration, 2);
  EXPECT_EQ(sink.count(Severity::kError), 1u);
  EXPECT_EQ(sink.count(Severity::kWarning), 1u);
  EXPECT_TRUE(sink.has_errors());
}

TEST(DiagnosticSinkTest, FormatNamesSeverityCodeAndEntity) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  sink.report({Severity::kWarning, DiagCode::kInnerUpdateUnbounded, "F1", "pending", 3});
  const std::string text = sink.format();
  EXPECT_NE(text.find("[warning]"), std::string::npos) << text;
  EXPECT_NE(text.find("inner-update-unbounded"), std::string::npos) << text;
  EXPECT_NE(text.find("'F1'"), std::string::npos) << text;
  EXPECT_NE(text.find("iteration 3"), std::string::npos) << text;
}

// ---- SporadicEnvelopeModel ------------------------------------------------

TEST(SporadicEnvelopeTest, LowerBoundSpacingAndUnboundedGaps) {
  const SporadicEnvelopeModel m(100);
  EXPECT_EQ(m.delta_min(2), 100);
  EXPECT_EQ(m.delta_min(5), 400);
  EXPECT_TRUE(is_infinite(m.delta_plus(2)));  // eq. 8: pending shape
  EXPECT_EQ(m.eta_plus(1001), 11);            // at most one event per 100 ticks
  EXPECT_EQ(m.eta_minus(1'000'000), 0);       // no arrival guarantee at all
  EXPECT_THROW(SporadicEnvelopeModel{-1}, std::invalid_argument);
  EXPECT_THROW(SporadicEnvelopeModel{kTimeInfinity}, std::invalid_argument);
}

// ---- utilization_wcrt_envelope -------------------------------------------

TEST(UtilizationEnvelopeTest, FiniteWhenUtilizationBelowOne) {
  const std::vector<EnvelopeTask> tasks{{periodic(10), 5}};
  const Time bound = utilization_wcrt_envelope(tasks);
  EXPECT_FALSE(is_infinite(bound));
  EXPECT_GE(bound, 5);  // must dominate the exact WCRT (here: the CET)
}

TEST(UtilizationEnvelopeTest, InfiniteAtOrAboveFullUtilization) {
  const std::vector<EnvelopeTask> tasks{{periodic(10), 10}};
  EXPECT_TRUE(is_infinite(utilization_wcrt_envelope(tasks)));
}

TEST(UtilizationEnvelopeTest, InfiniteForUnboundedActivation) {
  const std::vector<EnvelopeTask> tasks{{std::make_shared<UnboundedBurst>(), 1}};
  EXPECT_TRUE(is_infinite(utilization_wcrt_envelope(tasks)));
}

TEST(UtilizationEnvelopeTest, DominatesExactSppAnalysis) {
  // hp periodic(5) cet 2, lp periodic(20) cet 4: exact WCRT(lp) = 8.  The
  // linear envelope must lie above it.
  const std::vector<EnvelopeTask> tasks{{periodic(5), 2}, {periodic(20), 4}};
  const Time bound = utilization_wcrt_envelope(tasks);
  EXPECT_FALSE(is_infinite(bound));
  EXPECT_GE(bound, 8);
}

// ---- least_fixpoint error codes ------------------------------------------

TEST(FixpointBudgetTest, ExpiredDeadlineThrowsTimeBudget) {
  sched::FixpointLimits limits;
  limits.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  try {
    (void)sched::least_fixpoint([](Time w) { return w / 2 + 10; }, 0, limits, "test");
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeBudget);
  }
}

TEST(FixpointBudgetTest, WindowOverflowThrowsWindowLimit) {
  sched::FixpointLimits limits;
  limits.max_window = 100;
  try {
    (void)sched::least_fixpoint([](Time w) { return w + 7; }, 0, limits, "test");
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWindowLimit);
  }
}

TEST(FixpointBudgetTest, IterationExhaustionThrowsIterationLimit) {
  sched::FixpointLimits limits;
  limits.max_iterations = 10;
  try {
    (void)sched::least_fixpoint([](Time w) { return w + 1; }, 0, limits, "test");
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIterationLimit);
  }
}

// ---- graceful engine degradation -----------------------------------------

TEST(GracefulEngineTest, OverloadTaintsDownstreamConsumers) {
  System sys;
  const auto cpu1 = sys.add_resource({"cpu1", Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"cpu2", Policy::kSppPreemptive});
  const auto a = sys.add_task({"a", cpu1, 1, sched::ExecutionTime(120)});
  const auto b = sys.add_task({"b", cpu2, 1, sched::ExecutionTime(1)});
  sys.activate_external(a, periodic(100));
  sys.activate_by(b, {a});

  const auto report = CpaEngine(sys).run();
  EXPECT_EQ(report.task("a").status, TaskStatus::kOverloaded);
  EXPECT_TRUE(is_infinite(report.task("a").wcrt));
  // b itself is schedulable on its sporadic fallback activation, but its
  // bounds derive from a degraded producer.
  EXPECT_EQ(report.task("b").status, TaskStatus::kDegradedUpstream);
  EXPECT_FALSE(is_infinite(report.task("b").wcrt));
  EXPECT_TRUE(report.degraded());
  const std::string diag = report.diagnostics.format();
  EXPECT_NE(diag.find("resource-overload"), std::string::npos) << diag;
  EXPECT_NE(diag.find("degraded-upstream"), std::string::npos) << diag;
  // The report banner announces the degradation.
  EXPECT_NE(report.format().find("DEGRADED"), std::string::npos);
}

TEST(GracefulEngineTest, BusyWindowWindowLimitMapsToOverloaded) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto hp = sys.add_task({"hp", cpu, 1, sched::ExecutionTime(2)});
  const auto lp = sys.add_task({"lp", cpu, 2, sched::ExecutionTime(4)});
  sys.activate_external(hp, periodic(5));
  sys.activate_external(lp, periodic(20));
  EngineOptions opts;
  opts.fixpoint_limits.max_window = 1;  // every busy window overflows instantly
  opts.check_overload = false;          // exercise the busy-window path, not the load check
  const auto report = CpaEngine(sys, opts).run();
  EXPECT_EQ(report.task("lp").status, TaskStatus::kOverloaded);
  // The utilisation envelope still yields a finite conservative bound that
  // dominates the exact WCRT of 8.
  EXPECT_FALSE(is_infinite(report.task("lp").wcrt));
  EXPECT_GE(report.task("lp").wcrt, 8);
}

TEST(GracefulEngineTest, BusyWindowIterationLimitMapsToBudgetExhausted) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto hp = sys.add_task({"hp", cpu, 1, sched::ExecutionTime(2)});
  const auto lp = sys.add_task({"lp", cpu, 2, sched::ExecutionTime(4)});
  sys.activate_external(hp, periodic(5));
  sys.activate_external(lp, periodic(20));
  EngineOptions opts;
  opts.fixpoint_limits.max_iterations = 1;
  const auto report = CpaEngine(sys, opts).run();
  EXPECT_EQ(report.task("lp").status, TaskStatus::kBudgetExhausted);
  EXPECT_GE(report.task("lp").wcrt, 8);
}

TEST(GracefulEngineTest, ExpiredWallClockDeadlineYieldsBudgetExhausted) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(2)});
  sys.activate_external(t, periodic(10));
  EngineOptions opts;
  opts.fixpoint_limits.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const auto report = CpaEngine(sys, opts).run();
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.task("t").status, TaskStatus::kBudgetExhausted);
  EXPECT_TRUE(is_infinite(report.task("t").wcrt));
  const std::string diag = report.diagnostics.format();
  EXPECT_NE(diag.find("wall-clock-budget"), std::string::npos) << diag;
}

TEST(GracefulEngineTest, CyclicBootstrapYieldsUnresolvedDiagnostics) {
  System sys;
  const auto cpu1 = sys.add_resource({"cpu1", Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"cpu2", Policy::kSppPreemptive});
  const auto a = sys.add_task({"alpha", cpu1, 1, sched::ExecutionTime(1)});
  const auto b = sys.add_task({"beta", cpu2, 1, sched::ExecutionTime(1)});
  sys.activate_by(a, {b});
  sys.activate_by(b, {a});
  EngineOptions opts;
  opts.max_iterations = 8;
  opts.check_overload = false;
  const auto report = CpaEngine(sys, opts).run();
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.task("alpha").status, TaskStatus::kDiverged);
  EXPECT_EQ(report.task("beta").status, TaskStatus::kDiverged);
  EXPECT_TRUE(is_infinite(report.task("alpha").wcrt));
  const std::string diag = report.diagnostics.format();
  EXPECT_NE(diag.find("unresolved-activation"), std::string::npos) << diag;
}

TEST(GracefulEngineTest, GracefulAndStrictAgreeOnHealthySystems) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto hp = sys.add_task({"hp", cpu, 1, sched::ExecutionTime(2)});
  const auto lp = sys.add_task({"lp", cpu, 2, sched::ExecutionTime(4)});
  sys.activate_external(hp, periodic(5));
  sys.activate_external(lp, periodic(20));
  const auto graceful = CpaEngine(sys).run();
  EngineOptions opts;
  opts.strict = true;
  const auto strict = CpaEngine(sys, opts).run();
  for (const char* name : {"hp", "lp"}) {
    EXPECT_EQ(graceful.task(name).wcrt, strict.task(name).wcrt) << name;
    EXPECT_EQ(graceful.task(name).status, TaskStatus::kConverged) << name;
  }
  EXPECT_FALSE(graceful.degraded());
  EXPECT_TRUE(graceful.diagnostics.empty());
}

TEST(GracefulEngineTest, DuplicatePrioritiesRejectedAtAnyLoad) {
  // Equal priorities are rejected whatever the load: also at load 1.6,
  // where the overload pre-check hands the resource fallback bounds
  // without ever building its local analysis.
  for (const Policy policy : {Policy::kSppPreemptive, Policy::kSpnpCan}) {
    for (const Time cet : {Time{2}, Time{8}}) {
      System sys;
      const auto r = sys.add_resource({"r", policy});
      const auto a = sys.add_task({"a", r, 1, sched::ExecutionTime(cet)});
      const auto b = sys.add_task({"b", r, 1, sched::ExecutionTime(cet)});
      sys.activate_external(a, periodic(10));
      sys.activate_external(b, periodic(10));
      try {
        (void)CpaEngine(sys).run();
        ADD_FAILURE() << "expected std::invalid_argument at cet " << cet;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string(policy == Policy::kSpnpCan ? "CanBusAnalysis" : "SppAnalysis") +
                      ": duplicate priority 1 (task 'b')");
      }
    }
  }
}

TEST(GracefulEngineTest, DegradedReportIsInfeasibleForSensitivity) {
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(120)});
  sys.activate_external(t, periodic(100));
  const auto result = check_feasible(sys, {});
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.reason.find("degraded"), std::string::npos) << result.reason;
}

}  // namespace
}  // namespace hem::cpa
