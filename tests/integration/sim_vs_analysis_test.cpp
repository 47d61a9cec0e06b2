#include <gtest/gtest.h>

#include <algorithm>

#include "scenarios/paper_system.hpp"
#include "sim/system_simulator.hpp"
#include "sim/trace_check.hpp"

namespace hem::scenarios {
namespace {

/// The simulator is an independent implementation; every observed behaviour
/// must stay within the analytic bounds (for all generation modes/seeds).

sim::SystemSimResult simulate_paper(const PaperSystemParams& p, Time horizon, sim::GenMode mode,
                                    std::uint64_t seed) {
  sim::SystemSimulator::Options opts;
  opts.horizon = horizon;
  opts.mode = mode;
  opts.seed = seed;
  return sim::SystemSimulator(build_paper_system(p, /*hierarchical=*/true), opts).run();
}

class SimVsAnalysis : public ::testing::TestWithParam<std::tuple<sim::GenMode, std::uint64_t>> {
 protected:
  static const PaperSystemResults& analysis() {
    static const PaperSystemResults r = analyze_paper_system();
    return r;
  }
};

TEST_P(SimVsAnalysis, ObservedResponsesWithinAnalyticWcrt) {
  const auto [mode, seed] = GetParam();
  const auto result = simulate_paper({}, 200'000, mode, seed);
  for (const char* task : {"T1", "T2", "T3"}) {
    const auto& stats = result.tasks.at(task);
    ASSERT_FALSE(stats.responses.empty()) << task;
    EXPECT_LE(stats.wcrt, analysis().hem.task(task).wcrt) << task;
  }
}

TEST_P(SimVsAnalysis, ObservedFrameStreamWithinAnalyticOutput) {
  const auto [mode, seed] = GetParam();
  const auto result = simulate_paper({}, 200'000, mode, seed);
  // F1 completions must conform to the analytic F1 output stream (delta+
  // not checked: the analysis bounds it only while frames keep flowing,
  // and eta+/delta- are the load-relevant directions).
  const auto violations = sim::check_trace_against_model(
      result.tasks.at("F1").completions, *analysis().hem.task("F1").output, 5000, 61, 48,
      /*check_delta_plus=*/false);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_P(SimVsAnalysis, ObservedTaskActivationsWithinUnpackedModels) {
  const auto [mode, seed] = GetParam();
  const auto result = simulate_paper({}, 200'000, mode, seed);
  const char* tasks[] = {"T1", "T2", "T3"};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto violations = sim::check_trace_against_model(
        result.tasks.at(tasks[i]).activations, *analysis().hem.task(tasks[i]).activation, 5000,
        61, 48, /*check_delta_plus=*/false);
    EXPECT_TRUE(violations.empty()) << tasks[i] << ": " << violations.front();
  }
}

TEST_P(SimVsAnalysis, SignalDeliveriesMatchTaskActivations) {
  // A receiver is activated exactly when a frame carrying a fresh value of
  // its signal completes: every T1/T3 activation is an F1 completion, and
  // the pending signal S3 (one write per 1000 ticks) is delivered at most
  // once per write.
  const auto [mode, seed] = GetParam();
  const auto result = simulate_paper({}, 100'000, mode, seed);
  const auto& f1 = result.tasks.at("F1").completions;
  for (const char* task : {"T1", "T3"}) {
    const auto& acts = result.tasks.at(task).activations;
    ASSERT_FALSE(acts.empty()) << task;
    EXPECT_TRUE(std::includes(f1.begin(), f1.end(), acts.begin(), acts.end())) << task;
  }
  EXPECT_LE(result.tasks.at("T3").activations.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, SimVsAnalysis,
    ::testing::Values(std::tuple{sim::GenMode::kNominal, std::uint64_t{1}},
                      std::tuple{sim::GenMode::kEarliest, std::uint64_t{1}},
                      std::tuple{sim::GenMode::kRandom, std::uint64_t{1}},
                      std::tuple{sim::GenMode::kRandom, std::uint64_t{7}},
                      std::tuple{sim::GenMode::kRandom, std::uint64_t{42}}));

TEST(SimVsAnalysisExtra, JitteredSystemStillBounded) {
  PaperSystemParams p;
  p.s1_jitter = 60;
  p.s2_jitter = 100;
  p.s3_jitter = 150;
  const auto analysis = analyze_paper_system(p);
  for (std::uint64_t seed : {3u, 11u}) {
    const auto result = simulate_paper(p, 150'000, sim::GenMode::kRandom, seed);
    for (const char* task : {"T1", "T2", "T3"})
      EXPECT_LE(result.tasks.at(task).wcrt, analysis.hem.task(task).wcrt) << task;
  }
}

TEST(SimVsAnalysisExtra, SimulatedWcrtApproachesAnalyticBoundForT1) {
  // For the highest-priority receiver the bound (its CET) is exact.
  const auto result = simulate_paper({}, 100'000, sim::GenMode::kEarliest, 1);
  EXPECT_EQ(result.tasks.at("T1").wcrt, 24);
}

TEST(FaultInjectionDominance, DroppedFramesStayWithinHealthyBounds) {
  // Dropping stimuli only removes load, so the analytic bounds of the
  // healthy system must still dominate every observed response.
  const auto sys = build_paper_system({}, /*hierarchical=*/true);
  const auto report = cpa::CpaEngine(sys).run();
  ASSERT_FALSE(report.degraded());
  for (const double drop : {0.1, 0.5}) {
    for (const std::uint64_t seed : {1u, 17u}) {
      sim::SystemSimulator::Options opts;
      opts.horizon = 200'000;
      opts.mode = sim::GenMode::kRandom;
      opts.seed = seed;
      opts.faults.drop_rate = drop;
      const auto result = sim::SystemSimulator(sys, opts).run();
      for (const auto& t : report.tasks) {
        EXPECT_LE(result.tasks.at(t.name).wcrt, t.wcrt)
            << t.name << " drop=" << drop << " seed=" << seed;
      }
    }
  }
}

TEST(FaultInjectionDominance, DegradedBoundsDominateBurstyOverload) {
  // Inflate the CPU1 CETs until the resource is overloaded: the graceful
  // analysis reports fallback bounds (infinite for CPU1 tasks).  Then hit
  // the simulated system with adversarial faults (bursty duplicated frames
  // plus extra jitter) - observed responses must still stay below the
  // degraded bounds, which is what "conservative fallback" promises.
  PaperSystemParams p;
  p.t1_cet = 150;
  p.t2_cet = 200;
  p.t3_cet = 300;
  const auto sys = build_paper_system(p, /*hierarchical=*/true);
  const auto report = cpa::CpaEngine(sys).run();
  EXPECT_TRUE(report.degraded());
  EXPECT_TRUE(report.diagnostics.has_errors());
  bool any_overloaded = false;
  for (const auto& t : report.tasks)
    any_overloaded = any_overloaded || t.status == cpa::TaskStatus::kOverloaded;
  EXPECT_TRUE(any_overloaded);

  sim::SystemSimulator::Options opts;
  opts.horizon = 150'000;
  opts.mode = sim::GenMode::kEarliest;
  opts.seed = 5;
  opts.faults.extra_jitter = 40;
  opts.faults.burst = 2;
  const auto result = sim::SystemSimulator(sys, opts).run();
  // Converged tasks are exempt: the injected faults exceed their declared
  // event models, so only the degraded (fallback) bounds must dominate.
  for (const auto& t : report.tasks) {
    if (!t.degraded()) continue;
    EXPECT_LE(result.tasks.at(t.name).wcrt, t.wcrt) << t.name;
  }
}

}  // namespace
}  // namespace hem::scenarios
