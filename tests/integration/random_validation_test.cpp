// Randomised soundness validation: generate random task/frame sets with
// bounded utilisation, analyse them, simulate them with conforming random
// stimuli on one ResourceSim, and assert that every observed response time
// stays within the analytic worst case.  The simulator shares no code with
// the analyses, so a systematic bug in either side shows up as a violation
// here.  One suite per scheduling policy.

#include <gtest/gtest.h>

#include <random>

#include "core/standard_event_model.hpp"
#include "sched/local_analysis.hpp"
#include "sim/resource_sim.hpp"
#include "sim/source_generator.hpp"

namespace hem {
namespace {

struct RandomTask {
  std::string name;
  Time period;
  Time jitter;
  Time cet;
};

std::vector<RandomTask> random_task_set(std::mt19937_64& rng, int n_tasks,
                                        double max_utilization) {
  std::uniform_int_distribution<Time> period_dist(50, 500);
  std::uniform_int_distribution<Time> jitter_dist(0, 100);
  std::vector<RandomTask> tasks;
  double utilization = 0.0;
  for (int i = 0; i < n_tasks; ++i) {
    RandomTask t;
    t.name = "t" + std::to_string(i);
    t.period = period_dist(rng);
    t.jitter = jitter_dist(rng);
    const double budget = (max_utilization - utilization) / (n_tasks - i);
    t.cet = std::max<Time>(1, static_cast<Time>(budget * static_cast<double>(t.period)));
    utilization += static_cast<double>(t.cet) / static_cast<double>(t.period);
    tasks.push_back(t);
  }
  return tasks;
}

sched::TaskParams analysis_params(const RandomTask& t, int priority) {
  return sched::TaskParams{t.name, priority, sched::ExecutionTime(t.cet),
                           StandardEventModel::sporadic(t.period, t.jitter, 0)};
}

cpa::TaskSpec sim_spec(const RandomTask& t, int priority) {
  return cpa::TaskSpec{t.name, 0, priority, sched::ExecutionTime(t.cet)};
}

/// Release every task at conforming arrivals of (period, jitter) up to
/// `horizon` and run the resource until `horizon + drain`.
struct Observed {
  std::vector<sim::TaskStats> stats;
  Count deadline_misses = 0;
};
Observed simulate(const cpa::ResourceSpec& resource, const std::vector<cpa::TaskSpec>& specs,
                  const std::vector<RandomTask>& tasks, sim::GenMode mode, Time horizon,
                  Time drain, std::mt19937_64& rng) {
  sim::EventCalendar cal;
  sim::ResourceSim res(cal, resource, specs, /*worst_case=*/true, rng);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto arrivals =
        sim::generate_arrivals({tasks[i].period, tasks[i].jitter, 0, 0}, horizon, mode, rng);
    for (const Time a : arrivals) cal.at(a, [&res, i] { res.activate(i); });
  }
  cal.run_until(horizon + drain);
  Observed out;
  for (std::size_t i = 0; i < tasks.size(); ++i) out.stats.push_back(res.stats(i));
  out.deadline_misses = res.deadline_misses();
  return out;
}

class RandomSpp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSpp, SimulatedResponsesWithinAnalyticBounds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> size_dist(2, 5);
  const auto tasks = random_task_set(rng, size_dist(rng), 0.75);

  std::vector<sched::TaskParams> params;
  std::vector<cpa::TaskSpec> specs;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    params.push_back(analysis_params(tasks[i], static_cast<int>(i)));
    specs.push_back(sim_spec(tasks[i], static_cast<int>(i)));
  }
  const auto bounds = sched::LocalAnalysis(cpa::Policy::kSppPreemptive, params).analyze_all();

  for (const auto mode : {sim::GenMode::kNominal, sim::GenMode::kEarliest,
                          sim::GenMode::kRandom}) {
    const auto obs = simulate({"cpu", cpa::Policy::kSppPreemptive}, specs, tasks, mode,
                              100'000, 0, rng);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_LE(obs.stats[i].wcrt, bounds[i].wcrt)
          << "seed=" << GetParam() << " task=" << tasks[i].name << " mode="
          << static_cast<int>(mode);
      if (!obs.stats[i].responses.empty()) {
        EXPECT_GE(obs.stats[i].wcrt, bounds[i].bcrt);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSpp, ::testing::Range<std::uint64_t>(1, 21));

class RandomCan : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCan, SimulatedResponsesWithinAnalyticBounds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> size_dist(2, 5);
  const auto frames = random_task_set(rng, size_dist(rng), 0.6);

  std::vector<sched::TaskParams> params;
  std::vector<cpa::TaskSpec> specs;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    params.push_back(analysis_params(frames[i], static_cast<int>(i)));
    specs.push_back(sim_spec(frames[i], static_cast<int>(i)));
  }
  const auto bounds = sched::LocalAnalysis(cpa::Policy::kSpnpCan, params).analyze_all();

  for (const auto mode : {sim::GenMode::kEarliest, sim::GenMode::kRandom}) {
    const auto obs =
        simulate({"bus", cpa::Policy::kSpnpCan}, specs, frames, mode, 100'000, 10'000, rng);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto& responses = obs.stats[i].responses;
      for (std::size_t k = 0; k < responses.size(); ++k) {
        ASSERT_LE(responses[k], bounds[i].wcrt)
            << "seed=" << GetParam() << " frame=" << frames[i].name << " k=" << k;
        ASSERT_GE(responses[k], bounds[i].bcrt);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCan, ::testing::Range<std::uint64_t>(1, 21));

class RandomRoundRobin : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomRoundRobin, SimulatedResponsesWithinAnalyticBounds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> n_dist(2, 4);
  std::uniform_int_distribution<Time> slot_dist(2, 10);
  const int n = n_dist(rng);
  std::vector<RandomTask> tasks;
  std::vector<sched::TaskParams> analysis_tasks;
  std::vector<cpa::TaskSpec> specs;
  std::uniform_int_distribution<Time> period_dist(80, 400);
  double util = 0.0;
  for (int i = 0; i < n; ++i) {
    RandomTask t{"t" + std::to_string(i), period_dist(rng), 0, 0};
    const double budget = (0.7 - util) / (n - i);
    t.cet = std::max<Time>(1, static_cast<Time>(budget * static_cast<double>(t.period)));
    util += static_cast<double>(t.cet) / static_cast<double>(t.period);
    const Time slot = slot_dist(rng);
    analysis_tasks.push_back(analysis_params(t, 0));
    analysis_tasks.back().slot = slot;
    specs.push_back(sim_spec(t, 0));
    specs.back().slot = slot;
    tasks.push_back(t);
  }
  const auto bounds =
      sched::LocalAnalysis(cpa::Policy::kRoundRobin, analysis_tasks).analyze_all();

  for (const auto mode : {sim::GenMode::kNominal, sim::GenMode::kRandom}) {
    const auto obs =
        simulate({"rr", cpa::Policy::kRoundRobin}, specs, tasks, mode, 60'000, 5'000, rng);
    for (int i = 0; i < n; ++i)
      EXPECT_LE(obs.stats[i].wcrt, bounds[i].wcrt) << "seed=" << GetParam() << " task=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundRobin, ::testing::Range<std::uint64_t>(1, 16));

// EDF: no deadline miss when schedulable; observed responses within the
// analytic WCRT.
class RandomEdf : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomEdf, ScheduleMatchesAnalysis) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> n_dist(2, 4);
  const int n = n_dist(rng);
  std::vector<RandomTask> tasks;
  std::vector<sched::TaskParams> analysis_tasks;
  std::vector<cpa::TaskSpec> specs;
  std::uniform_int_distribution<Time> period_dist(40, 300);
  double util = 0.0;
  for (int i = 0; i < n; ++i) {
    RandomTask t{"t" + std::to_string(i), period_dist(rng), 0, 0};
    const double budget = (0.85 - util) / (n - i);
    t.cet = std::max<Time>(1, static_cast<Time>(budget * static_cast<double>(t.period)));
    util += static_cast<double>(t.cet) / static_cast<double>(t.period);
    // Constrained deadline in [cet + period/4, period].
    std::uniform_int_distribution<Time> dl_dist(t.cet + t.period / 4, t.period);
    const Time deadline = dl_dist(rng);
    analysis_tasks.push_back(analysis_params(t, 0));
    analysis_tasks.back().deadline = deadline;
    specs.push_back(sim_spec(t, 0));
    specs.back().deadline = deadline;
    tasks.push_back(t);
  }
  const sched::LocalAnalysis analysis(cpa::Policy::kEdf, analysis_tasks);
  const bool schedulable = analysis.schedulable();

  for (const auto mode : {sim::GenMode::kNominal, sim::GenMode::kEarliest}) {
    const auto obs = simulate({"edf", cpa::Policy::kEdf}, specs, tasks, mode, 60'000, 5'000, rng);
    if (schedulable) {
      EXPECT_EQ(obs.deadline_misses, 0) << "seed=" << GetParam();
      const auto bounds = analysis.analyze_all();
      for (int i = 0; i < n; ++i)
        EXPECT_LE(obs.stats[i].wcrt, bounds[i].wcrt) << "seed=" << GetParam() << " task=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEdf, ::testing::Range<std::uint64_t>(1, 21));

// TDMA: each task's demand stays below its share of the cycle; jittered
// sporadic stimuli.
class RandomTdma : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTdma, SimulatedResponsesWithinAnalyticBounds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> n_dist(2, 4);
  std::uniform_int_distribution<Time> slot_dist(2, 12);
  std::uniform_int_distribution<Time> period_dist(100, 600);
  std::uniform_int_distribution<Time> jitter_dist(0, 150);
  std::uniform_int_distribution<Time> idle_dist(0, 20);
  const int n = n_dist(rng);
  std::vector<Time> slots;
  Time cycle = idle_dist(rng);
  for (int i = 0; i < n; ++i) cycle += slots.emplace_back(slot_dist(rng));

  std::vector<RandomTask> tasks;
  std::vector<sched::TaskParams> analysis_tasks;
  std::vector<cpa::TaskSpec> specs;
  for (int i = 0; i < n; ++i) {
    RandomTask t{"t" + std::to_string(i), period_dist(rng), jitter_dist(rng), 0};
    const double share = 0.8 * static_cast<double>(slots[i]) / static_cast<double>(cycle);
    t.cet = std::max<Time>(1, static_cast<Time>(share * static_cast<double>(t.period)));
    analysis_tasks.push_back(analysis_params(t, 0));
    analysis_tasks.back().slot = slots[i];
    specs.push_back(sim_spec(t, 0));
    specs.back().slot = slots[i];
    tasks.push_back(t);
  }
  const auto bounds =
      sched::LocalAnalysis(cpa::Policy::kTdma, analysis_tasks, {}, cycle).analyze_all();

  for (const auto mode : {sim::GenMode::kNominal, sim::GenMode::kEarliest,
                          sim::GenMode::kRandom}) {
    const auto obs = simulate({"tdma", cpa::Policy::kTdma, cycle}, specs, tasks, mode, 60'000,
                              10'000, rng);
    for (int i = 0; i < n; ++i) {
      ASSERT_FALSE(obs.stats[i].responses.empty()) << "seed=" << GetParam() << " task=" << i;
      EXPECT_LE(obs.stats[i].wcrt, bounds[i].wcrt) << "seed=" << GetParam() << " task=" << i;
      EXPECT_GE(obs.stats[i].wcrt, bounds[i].bcrt) << "seed=" << GetParam() << " task=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTdma, ::testing::Range<std::uint64_t>(1, 21));

// FlexRay static: frames fit their slots and arrive at most once per cycle
// in the long run.
class RandomFlexRay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFlexRay, SimulatedResponsesWithinAnalyticBounds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> n_dist(2, 5);
  std::uniform_int_distribution<Time> slot_dist(3, 10);
  std::uniform_int_distribution<Time> idle_dist(0, 20);
  const int n = n_dist(rng);
  const Time slot_length = slot_dist(rng);
  const Time cycle = n * slot_length + idle_dist(rng);
  std::uniform_int_distribution<Time> period_dist(cycle + 1, 5 * cycle);
  std::uniform_int_distribution<Time> cet_dist(1, slot_length);

  std::vector<RandomTask> frames;
  std::vector<sched::TaskParams> analysis_frames;
  std::vector<cpa::TaskSpec> specs;
  for (int i = 0; i < n; ++i) {
    RandomTask f{"f" + std::to_string(i), period_dist(rng), 0, cet_dist(rng)};
    std::uniform_int_distribution<Time> jitter_dist(0, f.period);
    f.jitter = jitter_dist(rng);
    analysis_frames.push_back(analysis_params(f, 0));
    specs.push_back(sim_spec(f, 0));
    frames.push_back(f);
  }
  const auto bounds = sched::LocalAnalysis(cpa::Policy::kFlexRayStatic, analysis_frames, {},
                                           cycle, slot_length)
                            .analyze_all();

  for (const auto mode : {sim::GenMode::kNominal, sim::GenMode::kEarliest,
                          sim::GenMode::kRandom}) {
    const auto obs = simulate({"fr", cpa::Policy::kFlexRayStatic, cycle, slot_length}, specs,
                              frames, mode, 60'000, 10'000, rng);
    for (int i = 0; i < n; ++i) {
      ASSERT_FALSE(obs.stats[i].responses.empty()) << "seed=" << GetParam() << " frame=" << i;
      EXPECT_LE(obs.stats[i].wcrt, bounds[i].wcrt) << "seed=" << GetParam() << " frame=" << i;
      EXPECT_GE(obs.stats[i].wcrt, bounds[i].bcrt) << "seed=" << GetParam() << " frame=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlexRay, ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace hem
