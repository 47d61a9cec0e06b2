// Tests of the seeded wide-system synthesiser (scenarios/synth.hpp):
// same seed => identical system and identical analysis report; structural
// invariants (every resource populated, layered DAG converges, utilisation
// target respected); parameter validation.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "io/csv.hpp"
#include "model/cpa_engine.hpp"
#include "scenarios/synth.hpp"

namespace hem::cpa {
namespace {

std::string fingerprint(const AnalysisReport& report) {
  std::ostringstream os;
  os << report.format() << "\n--csv--\n";
  io::write_report_csv(os, report);
  return os.str();
}

scenarios::SynthParams small_params(std::uint64_t seed = 3) {
  scenarios::SynthParams p;
  p.resources = 20;
  p.tasks = 120;
  p.seed = seed;
  return p;
}

TEST(SynthSystemTest, SameSeedBuildsIdenticalSystem) {
  const System a = scenarios::build_synth_system(small_params());
  const System b = scenarios::build_synth_system(small_params());
  ASSERT_EQ(a.tasks().size(), b.tasks().size());
  ASSERT_EQ(a.resources().size(), b.resources().size());
  for (std::size_t t = 0; t < a.tasks().size(); ++t) {
    EXPECT_EQ(a.tasks()[t].name, b.tasks()[t].name);
    EXPECT_EQ(a.tasks()[t].resource, b.tasks()[t].resource);
    EXPECT_EQ(a.tasks()[t].priority, b.tasks()[t].priority);
    EXPECT_EQ(a.tasks()[t].cet.best, b.tasks()[t].cet.best);
    EXPECT_EQ(a.tasks()[t].cet.worst, b.tasks()[t].cet.worst);
  }
}

TEST(SynthSystemTest, SameSeedSameReportDifferentSeedDiffers) {
  const System a = scenarios::build_synth_system(small_params(3));
  const System b = scenarios::build_synth_system(small_params(3));
  const System c = scenarios::build_synth_system(small_params(4));
  const auto run = [](const System& sys) {
    EngineOptions opts;
    opts.jobs = 1;
    return fingerprint(CpaEngine(sys, opts).run());
  };
  EXPECT_EQ(run(a), run(b));
  EXPECT_NE(run(a), run(c));
}

TEST(SynthSystemTest, StructureIsLayeredAndPopulated) {
  const System sys = scenarios::build_synth_system(small_params());
  sys.validate();
  // Every resource carries at least one task.
  std::set<ResourceId> used;
  for (const TaskSpec& t : sys.tasks()) used.insert(t.resource);
  EXPECT_EQ(used.size(), sys.resources().size());
  // Gateway chains exist (some tasks are activated by producer outputs)
  // and only ever point at previous-layer tasks (a DAG by construction).
  int chained = 0;
  for (TaskId t = 0; t < sys.tasks().size(); ++t) {
    const auto* by = std::get_if<TaskOutputActivation>(&sys.activation(t));
    if (by == nullptr) continue;
    ++chained;
    for (const TaskId p : by->producers) EXPECT_LT(p, t) << "forward edge would cycle";
  }
  EXPECT_GT(chained, 0);
}

TEST(SynthSystemTest, ConvergesUnderAnalysis) {
  const System sys = scenarios::build_synth_system(small_params());
  EngineOptions opts;
  opts.jobs = 2;
  const AnalysisReport report = CpaEngine(sys, opts).run();
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.degraded());
}

TEST(SynthSystemTest, TimeDrivenMixIsDeterministicAndWellFormed) {
  scenarios::SynthParams p = small_params();
  p.tdma_permille = 250;
  p.rr_permille = 250;
  const System a = scenarios::build_synth_system(p);
  const System b = scenarios::build_synth_system(p);
  a.validate();
  // Deterministic: same seed + same mix => identical systems.
  ASSERT_EQ(a.resources().size(), b.resources().size());
  for (std::size_t r = 0; r < a.resources().size(); ++r) {
    EXPECT_EQ(a.resources()[r].policy, b.resources()[r].policy);
    EXPECT_EQ(a.resources()[r].tdma_cycle, b.resources()[r].tdma_cycle);
  }
  // Both time-driven policies actually appear at this mix and fleet size.
  int tdma = 0;
  int rr = 0;
  for (const ResourceSpec& r : a.resources()) {
    tdma += r.policy == Policy::kTdma;
    rr += r.policy == Policy::kRoundRobin;
  }
  EXPECT_GT(tdma, 0);
  EXPECT_GT(rr, 0);
  // Round-robin slots fit their task's WCET.  TDMA slots fit their cycle,
  // and each slot's share of the cycle is at least its task's utilisation
  // (WCET times the long-run activation rate).
  const AnalysisReport report = CpaEngine(a).run();
  std::vector<Time> slot_sum(a.resources().size(), 0);
  for (const TaskSpec& t : a.tasks()) {
    const ResourceSpec& res = a.resources()[t.resource];
    if (res.policy == Policy::kRoundRobin) EXPECT_GE(t.slot, t.cet.worst) << t.name;
    if (res.policy != Policy::kTdma) continue;
    slot_sum[t.resource] += t.slot;
    const double share = static_cast<double>(t.slot) / static_cast<double>(res.tdma_cycle);
    const double rate = long_run_rate(*report.task(t.name).activation);
    EXPECT_GE(share, rate * static_cast<double>(t.cet.worst)) << t.name;
  }
  for (std::size_t r = 0; r < a.resources().size(); ++r)
    if (a.resources()[r].policy == Policy::kTdma)
      EXPECT_LE(slot_sum[r], a.resources()[r].tdma_cycle) << a.resources()[r].name;
}

TEST(SynthSystemTest, TdmaMixConvergesWithoutOverload) {
  // Every CPU on TDMA: the slot tables keep every task within its share.
  scenarios::SynthParams p = small_params();
  p.tdma_permille = 1000;
  const System sys = scenarios::build_synth_system(p);
  const AnalysisReport report = CpaEngine(sys).run();
  EXPECT_TRUE(report.converged);
  int tdma = 0;
  for (const TaskResult& t : report.tasks) {
    if (sys.resources()[sys.tasks()[sys.task_id(t.name)].resource].policy != Policy::kTdma)
      continue;
    ++tdma;
    EXPECT_EQ(t.status, TaskStatus::kConverged) << t.name;
  }
  EXPECT_GT(tdma, 0);
}

TEST(SynthSystemTest, TimeDrivenMixConsumesNoExtraRandomness) {
  // Re-policying resources must not shift any RNG draw: the same seed has
  // to produce the same activation streams and execution times whether the
  // mix is on or off — that is what keeps historic seeds reproducible.
  scenarios::SynthParams plain = small_params();
  scenarios::SynthParams mixed = small_params();
  mixed.tdma_permille = 300;
  mixed.rr_permille = 200;
  const System a = scenarios::build_synth_system(plain);
  const System b = scenarios::build_synth_system(mixed);
  ASSERT_EQ(a.tasks().size(), b.tasks().size());
  for (std::size_t t = 0; t < a.tasks().size(); ++t) {
    EXPECT_EQ(a.tasks()[t].name, b.tasks()[t].name);
    EXPECT_EQ(a.tasks()[t].cet.best, b.tasks()[t].cet.best);
    EXPECT_EQ(a.tasks()[t].cet.worst, b.tasks()[t].cet.worst);
    const auto* ea = std::get_if<ExternalActivation>(&a.activation(t));
    const auto* eb = std::get_if<ExternalActivation>(&b.activation(t));
    ASSERT_EQ(ea == nullptr, eb == nullptr);
    if (ea != nullptr) EXPECT_EQ(ea->model->describe(), eb->model->describe());
  }
}

TEST(SynthSystemTest, EdfMixGetsImplicitDeadlinesAndConverges) {
  scenarios::SynthParams p = small_params();
  p.edf_permille = 500;
  const System sys = scenarios::build_synth_system(p);
  sys.validate();
  int edf = 0;
  for (const TaskSpec& t : sys.tasks()) {
    if (sys.resources()[t.resource].policy != Policy::kEdf) {
      EXPECT_EQ(t.deadline, 0) << t.name;
      continue;
    }
    ++edf;
    EXPECT_GE(t.deadline, t.cet.worst) << t.name;
  }
  EXPECT_GT(edf, 0);
  const AnalysisReport report = CpaEngine(sys).run();
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.degraded());
}

TEST(SynthSystemTest, RejectsBadTimeDrivenMix) {
  scenarios::SynthParams p = small_params();
  p.tdma_permille = 600;
  p.rr_permille = 600;  // sum > 1000
  EXPECT_THROW((void)scenarios::build_synth_system(p), std::invalid_argument);
  p = small_params();
  p.rr_permille = -1;
  EXPECT_THROW((void)scenarios::build_synth_system(p), std::invalid_argument);
  p = small_params();
  p.rr_permille = 500;
  p.edf_permille = 501;
  EXPECT_THROW((void)scenarios::build_synth_system(p), std::invalid_argument);
}

TEST(SynthSystemTest, RejectsDegenerateParameters) {
  scenarios::SynthParams p;
  p.resources = 0;
  EXPECT_THROW((void)scenarios::build_synth_system(p), std::invalid_argument);
  p = scenarios::SynthParams{};
  p.tasks = p.resources - 1;
  EXPECT_THROW((void)scenarios::build_synth_system(p), std::invalid_argument);
  p = scenarios::SynthParams{};
  p.utilization = 1.5;
  EXPECT_THROW((void)scenarios::build_synth_system(p), std::invalid_argument);
  p = scenarios::SynthParams{};
  p.min_period = 500;
  p.max_period = 100;
  EXPECT_THROW((void)scenarios::build_synth_system(p), std::invalid_argument);
}

}  // namespace
}  // namespace hem::cpa
