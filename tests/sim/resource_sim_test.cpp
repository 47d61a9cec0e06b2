#include "sim/resource_sim.hpp"

#include <gtest/gtest.h>

namespace hem::sim {
namespace {

// One suite per kind of simulated resource: SPP CPUs (CpuSimTest), CAN
// buses (BusSimTest), round-robin CPUs (QuantumCpuSimTest), EDF CPUs
// (EdfCpuSimTest), TDMA CPUs and FlexRay static segments.

using cpa::Policy;

cpa::TaskSpec task(std::string name, Time cet, int priority = 0) {
  return cpa::TaskSpec{std::move(name), 0, priority, sched::ExecutionTime(cet)};
}

cpa::TaskSpec slotted(std::string name, Time cet, Time slot) {
  cpa::TaskSpec t = task(std::move(name), cet);
  t.slot = slot;
  return t;
}

cpa::TaskSpec with_deadline(std::string name, Time cet, Time deadline) {
  cpa::TaskSpec t = task(std::move(name), cet);
  t.deadline = deadline;
  return t;
}

struct Harness {
  EventCalendar cal;
  std::mt19937_64 rng{1};

  ResourceSim make(cpa::ResourceSpec res, std::vector<cpa::TaskSpec> tasks,
                   bool worst_case = true) {
    return ResourceSim(cal, std::move(res), std::move(tasks), worst_case, rng);
  }
  const std::vector<Time>& responses(const ResourceSim& r, std::size_t i) {
    return r.stats(i).responses;
  }
};

const cpa::ResourceSpec kSpp{"cpu", Policy::kSppPreemptive};
const cpa::ResourceSpec kCan{"bus", Policy::kSpnpCan};
const cpa::ResourceSpec kRr{"rr", Policy::kRoundRobin};
const cpa::ResourceSpec kEdf{"edf", Policy::kEdf};

// ---- SPP ------------------------------------------------------------------

TEST(CpuSimTest, SingleJobRunsToCompletion) {
  Harness h;
  auto cpu = h.make(kSpp, {task("t", 10, 1)});
  h.cal.at(5, [&] { cpu.activate(0); });
  h.cal.run_until(1000);
  ASSERT_EQ(cpu.stats(0).responses.size(), 1u);
  EXPECT_EQ(cpu.stats(0).responses[0], 10);
  EXPECT_EQ(cpu.stats(0).activations[0], 5);
  EXPECT_EQ(cpu.stats(0).completions[0], 15);
}

TEST(CpuSimTest, PreemptionByHigherPriority) {
  Harness h;
  auto cpu = h.make(kSpp, {task("hp", 4, 1), task("lp", 10, 2)});
  h.cal.at(0, [&] { cpu.activate(1); });
  h.cal.at(3, [&] { cpu.activate(0); });
  h.cal.run_until(1000);
  // lp runs [0,3), preempted, hp runs [3,7), lp resumes [7,14).
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{4}));
  EXPECT_EQ(h.responses(cpu, 1), (std::vector<Time>{14}));
}

TEST(CpuSimTest, QueuedActivationsServeFifo) {
  Harness h;
  auto cpu = h.make(kSpp, {task("t", 10, 1)});
  h.cal.at(0, [&] {
    cpu.activate(0);
    cpu.activate(0);
  });
  h.cal.run_until(1000);
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{10, 20}));
  EXPECT_EQ(cpu.stats(0).wcrt, 20);
}

TEST(CpuSimTest, NestedPreemptionAccounting) {
  // Three levels: lo starts, mid preempts, hp preempts mid.
  Harness h;
  auto cpu = h.make(kSpp, {task("hp", 2, 1), task("mid", 5, 2), task("lo", 10, 3)});
  h.cal.at(0, [&] { cpu.activate(2); });
  h.cal.at(1, [&] { cpu.activate(1); });
  h.cal.at(2, [&] { cpu.activate(0); });
  h.cal.run_until(1000);
  // hp: [2,4) -> R=2.  mid: [1,2) ran 1, resumes [4,8) -> R=7.
  // lo: ran [0,1), resumes [8,17) -> R=17.
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{2}));
  EXPECT_EQ(h.responses(cpu, 1), (std::vector<Time>{7}));
  EXPECT_EQ(h.responses(cpu, 2), (std::vector<Time>{17}));
}

TEST(CpuSimTest, SimultaneousActivationPriorityOrder) {
  Harness h;
  auto cpu = h.make(kSpp, {task("hp", 3, 1), task("lp", 3, 2)});
  h.cal.at(0, [&] {
    cpu.activate(1);  // lp queued first...
    cpu.activate(0);  // ...but hp preempts before any time elapses
  });
  h.cal.run_until(100);
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{3}));
  EXPECT_EQ(h.responses(cpu, 1), (std::vector<Time>{6}));
}

TEST(CpuSimTest, ZeroRemainingEdgeCase) {
  // hp arrives exactly when lp would complete; arrival events were scheduled
  // first, so lp is preempted with zero remaining and completes right after
  // hp.
  Harness h;
  auto cpu = h.make(kSpp, {task("hp", 5, 1), task("lp", 10, 2)});
  h.cal.at(10, [&] { cpu.activate(0); });
  h.cal.at(0, [&] { cpu.activate(1); });
  h.cal.run_until(1000);
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{5}));
  EXPECT_EQ(h.responses(cpu, 1), (std::vector<Time>{15}));
}

TEST(CpuSimTest, EqualPrioritiesServeInTaskOrder) {
  // The analysis rejects equal priorities and falls back to conservative
  // bounds; the simulator still runs them, ties going to the lower index.
  Harness h;
  auto cpu = h.make(kSpp, {task("a", 3, 1), task("b", 3, 1)});
  h.cal.at(0, [&] {
    cpu.activate(1);
    cpu.activate(0);
  });
  h.cal.run_until(100);
  EXPECT_EQ(cpu.stats(0).completions, (std::vector<Time>{3}));
  EXPECT_EQ(cpu.stats(1).completions, (std::vector<Time>{6}));
}

TEST(CpuSimTest, ValidationErrors) {
  Harness h;
  EXPECT_THROW(h.make(kSpp, {}), std::invalid_argument);
  cpa::TaskSpec inverted = task("a", 5, 1);
  inverted.cet.worst = 4;  // below cet.best
  EXPECT_THROW(h.make(kSpp, {inverted}), std::invalid_argument);
}

// ---- CAN ------------------------------------------------------------------

TEST(BusSimTest, TransmitsImmediatelyWhenIdle) {
  Harness h;
  auto bus = h.make(kCan, {task("f", 10, 1)});
  h.cal.at(5, [&] { bus.activate(0); });
  h.cal.run_until(1000);
  EXPECT_EQ(bus.stats(0).completions, (std::vector<Time>{15}));
}

TEST(BusSimTest, NonPreemptiveArbitration) {
  // lo starts at 0; hi requested at 1 must wait until lo completes at 10.
  Harness h;
  auto bus = h.make(kCan, {task("hi", 5, 1), task("lo", 10, 2)});
  h.cal.at(0, [&] { bus.activate(1); });
  h.cal.at(1, [&] { bus.activate(0); });
  h.cal.run_until(1000);
  EXPECT_EQ(bus.stats(1).completions, (std::vector<Time>{10}));
  EXPECT_EQ(bus.stats(0).completions, (std::vector<Time>{15}));
  EXPECT_EQ(h.responses(bus, 0), (std::vector<Time>{14}));
}

TEST(BusSimTest, PriorityWinsWhenBothPending) {
  Harness h;
  auto bus = h.make(kCan, {task("hi", 5, 1), task("lo", 10, 2), task("lowest", 3, 3)});
  h.cal.at(0, [&] {
    bus.activate(1);  // sees an idle bus and starts at once (non-preemptive)
    bus.activate(2);
    bus.activate(0);  // queued behind lo, but wins the next arbitration over lowest
  });
  h.cal.run_until(1000);
  EXPECT_EQ(bus.stats(1).completions, (std::vector<Time>{10}));
  EXPECT_EQ(bus.stats(0).completions, (std::vector<Time>{15}));
  EXPECT_EQ(bus.stats(2).completions, (std::vector<Time>{18}));
}

TEST(BusSimTest, QueuedRequestsSerialise) {
  Harness h;
  auto bus = h.make(kCan, {task("f", 10, 1)});
  h.cal.at(0, [&] {
    bus.activate(0);
    bus.activate(0);
    bus.activate(0);
  });
  h.cal.run_until(1000);
  EXPECT_EQ(bus.stats(0).completions, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(h.responses(bus, 0), (std::vector<Time>{10, 20, 30}));
}

TEST(BusSimTest, StartAndCompleteHooksFire) {
  Harness h;
  auto bus = h.make(kCan, {task("f", 10, 1), task("g", 4, 2)});
  std::vector<std::pair<std::size_t, Time>> starts, ends;
  bus.on_start = [&](std::size_t i) { starts.emplace_back(i, h.cal.now()); };
  bus.on_complete = [&](std::size_t i) {
    ends.emplace_back(i, h.cal.now());
    if (i == 0) bus.activate(1);  // a request released by the completion
  };
  h.cal.at(3, [&] { bus.activate(0); });
  h.cal.run_until(1000);
  using Log = std::vector<std::pair<std::size_t, Time>>;
  EXPECT_EQ(starts, (Log{{0, 3}, {1, 13}}));
  EXPECT_EQ(ends, (Log{{0, 13}, {1, 17}}));
}

TEST(BusSimTest, RandomDurationsStayInRange) {
  Harness h;
  h.rng.seed(7);
  cpa::TaskSpec f = task("f", 15, 1);
  f.cet.best = 5;
  auto bus = h.make(kCan, {f}, /*worst_case=*/false);
  std::vector<Time> starts;
  bus.on_start = [&](std::size_t) { starts.push_back(h.cal.now()); };
  for (Time t = 0; t < 1000; t += 50) h.cal.at(t, [&] { bus.activate(0); });
  h.cal.run_until(5000);
  const auto& completions = bus.stats(0).completions;
  ASSERT_EQ(completions.size(), starts.size());
  ASSERT_EQ(completions.size(), 20u);
  bool varied = false;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const Time d = completions[i] - starts[i];
    EXPECT_GE(d, 5);
    EXPECT_LE(d, 15);
    varied = varied || d != completions[0] - starts[0];
  }
  EXPECT_TRUE(varied);
}

TEST(BusSimTest, ValidationErrors) {
  Harness h;
  EXPECT_THROW(h.make(kCan, {}), std::invalid_argument);
  cpa::TaskSpec inverted = task("a", 5, 1);
  inverted.cet.best = 6;
  EXPECT_THROW(h.make(kCan, {inverted}), std::invalid_argument);
}

// ---- round robin ------------------------------------------------------------

TEST(QuantumCpuSimTest, SingleTaskRunsThrough) {
  Harness h;
  auto cpu = h.make(kRr, {slotted("t", 10, 4)});
  h.cal.at(0, [&] { cpu.activate(0); });
  h.cal.run_until(1000);
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{10}));  // slices are contiguous when alone
}

TEST(QuantumCpuSimTest, TwoTasksInterleaveByQuantum) {
  Harness h;
  auto cpu = h.make(kRr, {slotted("a", 10, 5), slotted("b", 10, 5)});
  h.cal.at(0, [&] {
    cpu.activate(0);
    cpu.activate(1);
  });
  h.cal.run_until(1000);
  // Slices: a[0,5) b[5,10) a[10,15) b[15,20).
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{15}));
  EXPECT_EQ(h.responses(cpu, 1), (std::vector<Time>{20}));
}

TEST(QuantumCpuSimTest, CompletionInsideSliceFreesCpu) {
  Harness h;
  auto cpu = h.make(kRr, {slotted("short", 3, 10), slotted("long", 12, 10)});
  h.cal.at(0, [&] {
    cpu.activate(0);
    cpu.activate(1);
  });
  h.cal.run_until(1000);
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{3}));
  EXPECT_EQ(h.responses(cpu, 1), (std::vector<Time>{15}));
}

TEST(QuantumCpuSimTest, FifoWithinOneTask) {
  Harness h;
  auto cpu = h.make(kRr, {slotted("t", 6, 3)});
  h.cal.at(0, [&] {
    cpu.activate(0);
    cpu.activate(0);
  });
  h.cal.run_until(1000);
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{6, 12}));
}

TEST(QuantumCpuSimTest, ValidationErrors) {
  Harness h;
  EXPECT_THROW(h.make(kRr, {}), std::invalid_argument);
  EXPECT_THROW(h.make(kRr, {slotted("t", 3, 0)}), std::invalid_argument);
}

// ---- EDF ------------------------------------------------------------------

TEST(EdfCpuSimTest, EarlierDeadlineWins) {
  Harness h;
  auto cpu = h.make(kEdf, {with_deadline("urgent", 3, 5), with_deadline("lazy", 10, 100)});
  h.cal.at(0, [&] { cpu.activate(1); });
  h.cal.at(2, [&] { cpu.activate(0); });
  h.cal.run_until(1000);
  // lazy runs [0,2), urgent preempts [2,5), lazy resumes [5,13).
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{3}));
  EXPECT_EQ(h.responses(cpu, 1), (std::vector<Time>{13}));
  EXPECT_EQ(cpu.deadline_misses(), 0);
}

TEST(EdfCpuSimTest, LaterDeadlineDoesNotPreempt) {
  Harness h;
  auto cpu = h.make(kEdf, {with_deadline("loose", 4, 50), with_deadline("running", 10, 20)});
  h.cal.at(0, [&] { cpu.activate(1); });
  h.cal.at(2, [&] { cpu.activate(0); });  // deadline 52 > 20: no preemption
  h.cal.run_until(1000);
  EXPECT_EQ(h.responses(cpu, 1), (std::vector<Time>{10}));
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{12}));
}

TEST(EdfCpuSimTest, CountsDeadlineMisses) {
  Harness h;
  auto cpu = h.make(kEdf, {with_deadline("a", 10, 8)});  // cannot make its own deadline
  h.cal.at(0, [&] { cpu.activate(0); });
  h.cal.at(20, [&] { cpu.activate(0); });
  h.cal.run_until(100);
  EXPECT_EQ(cpu.deadline_misses(), 2);
}

TEST(EdfCpuSimTest, ValidationErrors) {
  Harness h;
  EXPECT_THROW(h.make(kEdf, {}), std::invalid_argument);
  EXPECT_THROW(h.make(kEdf, {with_deadline("t", 5, 0)}), std::invalid_argument);
}

// ---- TDMA -----------------------------------------------------------------

const cpa::ResourceSpec kTdma{"tdma", Policy::kTdma, /*tdma_cycle=*/20};

TEST(TdmaSimTest, OnlyTheSlotOwnerRuns) {
  // Slots: a owns [0,5), b owns [5,10) of every 20-tick cycle.
  Harness h;
  auto cpu = h.make(kTdma, {slotted("a", 8, 5), slotted("b", 3, 5)});
  h.cal.at(0, [&] { cpu.activate(0); });
  h.cal.at(1, [&] { cpu.activate(1); });   // waits for its slot at 5
  h.cal.at(12, [&] { cpu.activate(1); });  // missed its slot: next one at 25
  h.cal.run_until(1000);
  // a: [0,5), preempted at its slot end, resumes [20,23).
  EXPECT_EQ(h.responses(cpu, 0), (std::vector<Time>{23}));
  EXPECT_EQ(cpu.stats(1).completions, (std::vector<Time>{8, 28}));
}

TEST(TdmaSimTest, BacklogDrainsSlotBySlot) {
  Harness h;
  auto cpu = h.make(kTdma, {slotted("a", 4, 5), slotted("b", 2, 5)});
  h.cal.at(7, [&] {
    cpu.activate(0);
    cpu.activate(0);
  });
  h.cal.run_until(1000);
  // First job [20,24); the second has 1 tick of the slot left, then [40,43).
  EXPECT_EQ(cpu.stats(0).completions, (std::vector<Time>{24, 43}));
}

TEST(TdmaSimTest, ValidationErrors) {
  Harness h;
  EXPECT_THROW(h.make(kTdma, {slotted("a", 1, 15), slotted("b", 1, 6)}), std::invalid_argument);
  EXPECT_THROW(h.make(kTdma, {slotted("a", 1, 0)}), std::invalid_argument);
  EXPECT_THROW(h.make({"tdma", Policy::kTdma}, {slotted("a", 1, 1)}), std::invalid_argument);
}

// ---- FlexRay static -----------------------------------------------------------

const cpa::ResourceSpec kFlexRay{"fr", Policy::kFlexRayStatic, /*tdma_cycle=*/10,
                                 /*slot_length=*/3};

TEST(FlexRaySimTest, OneInstancePerCycleAtTheSlotStart) {
  // f0 owns the slot at 0, f1 the slot at 3 of every 10-tick cycle.
  Harness h;
  auto bus = h.make(kFlexRay, {task("f0", 2), task("f1", 2)});
  h.cal.at(0, [&] { bus.activate(0); });  // sends at once
  h.cal.at(1, [&] {
    bus.activate(0);  // missed its slot start: waits a cycle
    bus.activate(1);
    bus.activate(1);  // second instance goes one cycle later
  });
  h.cal.run_until(1000);
  EXPECT_EQ(bus.stats(0).completions, (std::vector<Time>{2, 12}));
  EXPECT_EQ(bus.stats(1).completions, (std::vector<Time>{5, 15}));
}

TEST(FlexRaySimTest, ValidationErrors) {
  Harness h;
  EXPECT_THROW(h.make(kFlexRay, {task("f", 4)}), std::invalid_argument);  // exceeds its slot
  EXPECT_THROW(h.make(kFlexRay, {task("a", 1), task("b", 1), task("c", 1), task("d", 1)}),
               std::invalid_argument);  // four 3-tick slots in a 10-tick cycle
}

}  // namespace
}  // namespace hem::sim
