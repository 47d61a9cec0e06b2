#include "sched/local_analysis.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"

namespace hem::sched {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TaskParams rr(std::string name, Time cet, Time slot, ModelPtr act) {
  return TaskParams{std::move(name), 0, ExecutionTime(cet), std::move(act), slot};
}

LocalAnalysis round_robin(std::vector<TaskParams> tasks) {
  return LocalAnalysis(Policy::kRoundRobin, std::move(tasks));
}

TEST(RoundRobinTest, SingleTaskRunsUnimpeded) {
  const auto a = round_robin({rr("t", 10, 5, periodic(100))});
  EXPECT_EQ(a.analyze(0).wcrt, 10);
}

TEST(RoundRobinTest, TwoTasksShareBandwidth) {
  // Both C=10, slot=5, periods 100: t0 needs 2 of its slots; the other can
  // interleave at most 2 slots (bounded by rounds) and no more than its own
  // pending demand.
  const auto a = round_robin({rr("a", 10, 5, periodic(100)), rr("b", 10, 5, periodic(100))});
  const auto r = a.analyze(0);
  // rounds = ceil(10/5) = 2 -> interference min(10, 2*5) = 10 -> w = 20.
  EXPECT_EQ(r.wcrt, 20);
}

TEST(RoundRobinTest, InterferenceBoundedByOthersDemand) {
  // The other task only has C=2 pending per period; even with many rounds it
  // cannot interfere more than its demand.
  const auto a =
      round_robin({rr("big", 20, 4, periodic(100)), rr("small", 2, 4, periodic(100))});
  const auto r = a.analyze(0);
  // rounds = 5, slots would allow 20, but demand is min(eta*2, 20) = 2.
  EXPECT_EQ(r.wcrt, 22);
}

TEST(RoundRobinTest, InterferenceBoundedBySlots) {
  // The other task has plenty of demand but only its slot per round.
  const auto a =
      round_robin({rr("me", 10, 10, periodic(200)), rr("greedy", 50, 5, periodic(200))});
  const auto r = a.analyze(0);
  // rounds = 1 -> greedy contributes min(50, 5) = 5 -> w = 15.
  EXPECT_EQ(r.wcrt, 15);
}

TEST(RoundRobinTest, ValidationErrors) {
  EXPECT_THROW(round_robin({}), std::invalid_argument);
  EXPECT_THROW(round_robin({rr("t", 5, 0, periodic(10))}), std::invalid_argument);
  EXPECT_THROW(round_robin({TaskParams{"t", 0, ExecutionTime(5), nullptr, 5}}),
               std::invalid_argument);
}

TEST(RoundRobinTest, MoreTasksMoreInterference) {
  std::vector<TaskParams> two{rr("me", 10, 5, periodic(100)),
                                  rr("o1", 10, 5, periodic(100))};
  std::vector<TaskParams> three = two;
  three.push_back(rr("o2", 10, 5, periodic(100)));
  EXPECT_LE(round_robin(two).analyze(0).wcrt,
            round_robin(three).analyze(0).wcrt);
}

TEST(RoundRobinTest, BacklogBoundCountsQueuedBurst) {
  // Two activations can coincide (jitter > period): both are pending at once.
  const auto burst = StandardEventModel::periodic_with_jitter(50, 60);
  const auto a = round_robin({rr("t", 4, 2, burst), rr("o", 4, 2, periodic(50))});
  EXPECT_EQ(a.analyze(0).backlog, 2);
  EXPECT_EQ(a.analyze(1).backlog, 1);
}

}  // namespace
}  // namespace hem::sched
