#include "sched/busy_window.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"
#include "sched/local_analysis.hpp"

namespace hem::sched {
namespace {

TEST(ExecutionTimeTest, Validation) {
  EXPECT_NO_THROW(ExecutionTime(0));
  EXPECT_NO_THROW(ExecutionTime(2, 5));
  EXPECT_THROW(ExecutionTime(-1), std::invalid_argument);
  EXPECT_THROW(ExecutionTime(5, 2), std::invalid_argument);
  const ExecutionTime e(3);
  EXPECT_EQ(e.best, 3);
  EXPECT_EQ(e.worst, 3);
}

TEST(LeastFixpointTest, FindsFixpoint) {
  // w = 10 + floor(w/2): ascending from 0 stabilises at 19.
  const Time w = least_fixpoint([](Time w_cur) { return 10 + w_cur / 2; }, 0, {},
                                "test");
  EXPECT_EQ(w, 19);
}

TEST(LeastFixpointTest, ImmediateFixpoint) {
  EXPECT_EQ(least_fixpoint([](Time w) { return w; }, 7, {}, "test"), 7);
}

TEST(LeastFixpointTest, DivergenceHitsWindowCap) {
  FixpointLimits limits;
  limits.max_window = 1000;
  EXPECT_THROW(least_fixpoint([](Time w) { return w + 7; }, 0, limits, "test"),
               AnalysisError);
}

TEST(LeastFixpointTest, NonMonotoneDetected) {
  EXPECT_THROW(least_fixpoint([](Time w) { return w > 5 ? 0 : w + 3; }, 0, {}, "test"),
               AnalysisError);
}

TEST(BacklogBoundTest, PeriodicNeverQueues) {
  const auto m = StandardEventModel::periodic(100);
  // Completions well before the next arrival.
  EXPECT_EQ(backlog_bound(*m, {10}), 1);
}

TEST(BacklogBoundTest, SlowServiceAccumulates) {
  const auto m = StandardEventModel::periodic(10);
  // Completions at 25, 50, 75: when job 3 arrives at 20, none have
  // completed -> backlog 3; job 4 arrives at 30 with one done -> 3.
  EXPECT_EQ(backlog_bound(*m, {25, 50, 75, 100}), 3);
}

TEST(BacklogBoundTest, EmptyCompletions) {
  const auto m = StandardEventModel::periodic(10);
  EXPECT_EQ(backlog_bound(*m, {}), 0);
}

TEST(ValidateTaskSetTest, CatchesProblems) {
  const auto m = StandardEventModel::periodic(10);
  EXPECT_THROW(validate_priority_task_set({}, "x"), std::invalid_argument);
  EXPECT_THROW(validate_priority_task_set({TaskParams{"", 1, ExecutionTime(1), m}}, "x"),
               std::invalid_argument);
  EXPECT_THROW(
      validate_priority_task_set({TaskParams{"a", 1, ExecutionTime(1), nullptr}}, "x"),
      std::invalid_argument);
  EXPECT_NO_THROW(validate_priority_task_set(
      {TaskParams{"a", 1, ExecutionTime(1), m}, TaskParams{"b", 2, ExecutionTime(1), m}},
      "x"));
}

// Report fingerprints hash diagnostic texts, so each policy keeps its own
// prefix and wording.
TEST(LocalAnalysisTest, ValidationTextsKeepPerPolicyPrefix) {
  const auto m = StandardEventModel::periodic(10);
  const auto text = [](const auto& build) {
    try {
      build();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const TaskParams a{"a", 1, ExecutionTime(2), m, 4, 5};
  TaskParams b = a;
  b.name = "b";
  EXPECT_EQ(text([&] { LocalAnalysis(Policy::kSppPreemptive, {a, b}); }),
            "SppAnalysis: duplicate priority 1 (task 'b')");
  EXPECT_EQ(text([&] { LocalAnalysis(Policy::kSpnpCan, {}); }), "CanBusAnalysis: empty task set");
  b.slot = 0;
  EXPECT_EQ(text([&] { LocalAnalysis(Policy::kRoundRobin, {a, b}); }),
            "RoundRobinAnalysis: task 'b' needs a positive slot");
  EXPECT_EQ(text([&] { LocalAnalysis(Policy::kTdma, {a}, {}, 3); }),
            "TdmaAnalysis: slots exceed the cycle length");
  EXPECT_EQ(text([&] { LocalAnalysis(Policy::kFlexRayStatic, {}, {}, 10, 2); }),
            "FlexRayStaticAnalysis: no frames");
  EXPECT_EQ(text([&] { LocalAnalysis(Policy::kFlexRayStatic, {a}, {}, 10, 1); }),
            "FlexRayStaticAnalysis: frame 'a' does not fit its slot");
  b.deadline = 0;
  EXPECT_EQ(text([&] { LocalAnalysis(Policy::kEdf, {a, b}); }),
            "EdfAnalysis: task 'b' needs a positive deadline");
  EXPECT_EQ(text([&] { LocalAnalysis(SupplyPtr{}, {a}); }),
            "ServerSppAnalysis: null supply model");
}

}  // namespace
}  // namespace hem::sched
