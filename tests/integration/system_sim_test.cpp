// System-level validation: the SAME cpa::System object is analysed by the
// engine and executed by the generic system simulator; every observed
// response must stay within the analytic worst case.  This covers the
// whole stack at once: packing, CAN arbitration, inner updates, unpacking,
// chained CPUs, OR junctions.

#include "sim/system_simulator.hpp"

#include <gtest/gtest.h>

#include "core/delta_function_model.hpp"
#include "core/standard_event_model.hpp"
#include "model/cpa_engine.hpp"
#include "scenarios/body_network.hpp"
#include "scenarios/paper_system.hpp"

namespace hem::sim {
namespace {

using hem::DeltaFunctionModel;
using hem::StandardEventModel;

void expect_within_bounds(const cpa::AnalysisReport& report, const SystemSimResult& sim,
                          const std::string& context) {
  for (const auto& task : report.tasks) {
    const auto it = sim.tasks.find(task.name);
    ASSERT_NE(it, sim.tasks.end()) << context << " " << task.name;
    EXPECT_LE(it->second.wcrt, task.wcrt) << context << " " << task.name;
  }
}

class SystemSimModes
    : public ::testing::TestWithParam<std::tuple<GenMode, std::uint64_t>> {};

TEST_P(SystemSimModes, PaperSystemWithinBounds) {
  const auto [mode, seed] = GetParam();
  const auto sys = scenarios::build_paper_system({}, /*hierarchical=*/true);
  const auto report = cpa::CpaEngine(sys).run();

  SystemSimulator::Options opts;
  opts.horizon = 300'000;
  opts.mode = mode;
  opts.seed = seed;
  const auto sim = SystemSimulator(sys, opts).run();
  expect_within_bounds(report, sim, "paper");
  // Sanity: everything actually ran.
  EXPECT_GT(sim.tasks.at("T1").responses.size(), 1000u);
  EXPECT_GT(sim.tasks.at("F1").responses.size(), 1500u);
}

TEST_P(SystemSimModes, BodyNetworkWithinBounds) {
  const auto [mode, seed] = GetParam();
  const auto sys = scenarios::build_body_network({});
  const auto report = cpa::CpaEngine(sys).run();

  SystemSimulator::Options opts;
  opts.horizon = 400'000;
  opts.mode = mode;
  opts.seed = seed;
  const auto sim = SystemSimulator(sys, opts).run();
  expect_within_bounds(report, sim, "body");
  // The two-hop forwarded signal reached the dashboard.
  EXPECT_GT(sim.tasks.at("dash_wheel").responses.size(), 100u);
  EXPECT_GT(sim.tasks.at("dash_temp").responses.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, SystemSimModes,
    ::testing::Values(std::tuple{GenMode::kNominal, std::uint64_t{1}},
                      std::tuple{GenMode::kEarliest, std::uint64_t{1}},
                      std::tuple{GenMode::kRandom, std::uint64_t{1}},
                      std::tuple{GenMode::kRandom, std::uint64_t{9}},
                      std::tuple{GenMode::kRandom, std::uint64_t{23}}));

TEST(SystemSimTest, EveryPolicyRuns) {
  // One resource per remaining policy, chained: RR -> TDMA -> packed
  // FlexRay frame -> unpacked EDF receiver.
  using cpa::Policy;
  cpa::System sys;
  const auto rr = sys.add_resource({"rr", Policy::kRoundRobin});
  const auto tdma = sys.add_resource({"tdma", Policy::kTdma, /*tdma_cycle=*/40});
  const auto fr = sys.add_resource({"fr", Policy::kFlexRayStatic, /*tdma_cycle=*/20,
                                    /*slot_length=*/5});
  const auto edf = sys.add_resource({"edf", Policy::kEdf});
  const auto add = [&](const char* name, cpa::ResourceId r, Time cet, Time slot, Time deadline) {
    cpa::TaskSpec t{name, r, 0, sched::ExecutionTime(cet)};
    t.slot = slot;
    t.deadline = deadline;
    return sys.add_task(t);
  };
  const auto a = add("a", rr, 3, 2, 0);
  const auto b = add("b", rr, 4, 3, 0);
  const auto c = add("c", tdma, 6, 10, 0);
  const auto d = add("d", tdma, 2, 4, 0);
  const auto f = add("f", fr, 4, 0, 0);
  const auto e = add("e", edf, 5, 0, 60);
  const auto g = add("g", edf, 10, 0, 100);
  sys.activate_external(a, StandardEventModel::periodic(50));
  sys.activate_external(b, StandardEventModel::periodic_with_jitter(70, 20));
  sys.activate_by(c, {a});
  sys.activate_external(d, StandardEventModel::periodic(100));
  sys.activate_packed(f, {{c, SignalCoupling::kTriggering},
                          {StandardEventModel::periodic(200), SignalCoupling::kPending}});
  sys.activate_unpacked(e, f, 0);
  sys.activate_external(g, StandardEventModel::periodic(150));
  const auto report = cpa::CpaEngine(sys).run();
  ASSERT_FALSE(report.degraded());

  for (const auto mode : {GenMode::kNominal, GenMode::kEarliest, GenMode::kRandom}) {
    SystemSimulator::Options opts;
    opts.horizon = 50'000;
    opts.mode = mode;
    const auto sim = SystemSimulator(sys, opts).run();
    expect_within_bounds(report, sim, "policies");
    for (const auto& [name, stats] : sim.tasks)
      EXPECT_GT(stats.responses.size(), 100u) << name;
  }
}

TEST(SystemSimTest, NonSemExternalRejected) {
  cpa::System sys;
  const auto cpu = sys.add_resource({"cpu", cpa::Policy::kSppPreemptive});
  const auto id = sys.add_task({"t", cpu, 0, sched::ExecutionTime(1)});
  sys.activate_external(id, DeltaFunctionModel::periodic_burst(2, 5, 100));
  SystemSimulator simulator(sys, {});
  EXPECT_THROW(simulator.run(), std::invalid_argument);
}

TEST(SystemSimTest, AndJunctionFiresOncePerTokenSet) {
  cpa::System sys;
  const auto cpu1 = sys.add_resource({"cpu1", cpa::Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"cpu2", cpa::Policy::kSppPreemptive});
  const auto a = sys.add_task({"a", cpu1, 1, sched::ExecutionTime(1)});
  const auto b = sys.add_task({"b", cpu1, 2, sched::ExecutionTime(2)});
  const auto j = sys.add_task({"j", cpu2, 1, sched::ExecutionTime(3)});
  sys.activate_external(a, StandardEventModel::periodic(100));
  sys.activate_external(b, StandardEventModel::periodic(100));
  sys.activate_and(j, {a, b}, 100);

  SystemSimulator::Options opts;
  opts.horizon = 100'000;
  opts.mode = GenMode::kNominal;
  const auto sim = SystemSimulator(sys, opts).run();
  // One join per period: ~1000 activations, equal to a's count.
  EXPECT_NEAR(static_cast<double>(sim.tasks.at("j").activations.size()),
              static_cast<double>(sim.tasks.at("a").activations.size()), 2.0);
  // And within the analytic bound.
  const auto report = cpa::CpaEngine(sys).run();
  EXPECT_LE(sim.tasks.at("j").wcrt, report.task("j").wcrt);
}

// ---- COM-layer semantics ------------------------------------------------------
// One CAN frame F (10 ticks) packs the inputs each test declares; receiver
// Ri is activated by the unpacked inner stream of input i.

struct ComFixture : ::testing::Test {
  cpa::System sys;
  cpa::ResourceId bus = sys.add_resource({"bus", cpa::Policy::kSpnpCan});
  cpa::ResourceId cpu = sys.add_resource({"cpu", cpa::Policy::kSppPreemptive});
  cpa::TaskId frame = sys.add_task({"F", bus, 1, sched::ExecutionTime(10)});

  void pack(std::vector<cpa::PackedActivation::Input> inputs, ModelPtr timer = nullptr) {
    const std::size_t n = inputs.size();
    sys.activate_packed(frame, std::move(inputs), std::move(timer));
    for (std::size_t i = 0; i < n; ++i) {
      const auto r = sys.add_task(
          {"R" + std::to_string(i), cpu, static_cast<int>(i) + 1, sched::ExecutionTime(1)});
      sys.activate_unpacked(r, frame, i);
    }
  }
  SystemSimResult run(Time horizon = 1000) {
    SystemSimulator::Options opts;
    opts.horizon = horizon;
    opts.mode = GenMode::kNominal;
    return SystemSimulator(sys, opts).run();
  }
  static std::vector<Time> every(Time from, Time step, Time until) {
    std::vector<Time> out;
    for (Time t = from; t < until; t += step) out.push_back(t);
    return out;
  }
};

TEST_F(ComFixture, TriggeringSignalSendsFrame) {
  pack({{StandardEventModel::periodic(100), SignalCoupling::kTriggering}});
  const auto sim = run();
  EXPECT_EQ(sim.tasks.at("F").completions, every(10, 100, 1000));
  EXPECT_EQ(sim.tasks.at("R0").activations, every(10, 100, 1000));
}

TEST_F(ComFixture, PendingSignalWaitsForTimer) {
  // Writes at 0, 250, 500, 750; the send timer fires every 100.  A write
  // rides the next timer frame: 250 goes out with the frame at 300.
  pack({{StandardEventModel::periodic(250), SignalCoupling::kPending}},
       StandardEventModel::periodic(100));
  const auto sim = run();
  EXPECT_EQ(sim.tasks.at("R0").activations, (std::vector<Time>{10, 310, 510, 810}));
}

TEST_F(ComFixture, FreshFlagClearedOnLatch) {
  // Ten timer frames, but only the four carrying a fresh value deliver.
  pack({{StandardEventModel::periodic(250), SignalCoupling::kPending}},
       StandardEventModel::periodic(100));
  const auto sim = run();
  EXPECT_EQ(sim.tasks.at("F").completions.size(), 10u);
  EXPECT_EQ(sim.tasks.at("R0").activations.size(), 4u);
}

TEST_F(ComFixture, OverwritingBeforeLatchDeliversOnce) {
  // 25 writes (every 40) overwrite the register between the ten timer
  // frames: each frame delivers ONE fresh value.
  pack({{StandardEventModel::periodic(40), SignalCoupling::kPending}},
       StandardEventModel::periodic(100));
  const auto sim = run();
  EXPECT_EQ(sim.tasks.at("R0").activations, every(10, 100, 1000));
}

TEST_F(ComFixture, SignalDuringTransmissionRidesNextFrame) {
  // a triggers frames at 0, 30, ...; producer P (own CPU, 5 ticks, every
  // 100) writes b at 5 while the first frame is on the wire [0, 10), so b
  // travels in the frame sent at 30.
  const auto cpu2 = sys.add_resource({"cpu2", cpa::Policy::kSppPreemptive});
  const auto producer = sys.add_task({"P", cpu2, 1, sched::ExecutionTime(5)});
  sys.activate_external(producer, StandardEventModel::periodic(100));
  pack({{StandardEventModel::periodic(30), SignalCoupling::kTriggering},
        {producer, SignalCoupling::kPending}});
  const auto sim = run();
  ASSERT_FALSE(sim.tasks.at("R1").activations.empty());
  EXPECT_EQ(sim.tasks.at("R1").activations.front(), 40);
  EXPECT_EQ(sim.tasks.at("R0").activations.front(), 10);
}

TEST_F(ComFixture, DeliverCallbackFires) {
  // Delivery activates only the receivers whose signal was fresh in the
  // frame.  At 0 both signals are written: a's trigger starts a frame that
  // latches a alone, b's trigger queues a second frame that carries b.
  pack({{StandardEventModel::periodic(100), SignalCoupling::kTriggering},
        {StandardEventModel::periodic(300), SignalCoupling::kTriggering}});
  const auto sim = run();
  EXPECT_EQ(sim.tasks.at("R0").activations, every(10, 100, 1000));
  EXPECT_EQ(sim.tasks.at("R1").activations, (std::vector<Time>{20, 320, 620, 920}));
  EXPECT_EQ(sim.tasks.at("F").completions.size(), 14u);
}

TEST_F(ComFixture, ValidationErrors) {
  pack({{StandardEventModel::periodic(100), SignalCoupling::kPending}},
       DeltaFunctionModel::periodic_burst(2, 5, 100));  // timer without a SEM
  EXPECT_THROW(run(), std::invalid_argument);

  cpa::System unpacked_only;
  const auto cpu = unpacked_only.add_resource({"cpu", cpa::Policy::kSppPreemptive});
  const auto src = unpacked_only.add_task({"src", cpu, 1, sched::ExecutionTime(1)});
  const auto rx = unpacked_only.add_task({"rx", cpu, 2, sched::ExecutionTime(1)});
  unpacked_only.activate_external(src, StandardEventModel::periodic(10));
  unpacked_only.activate_unpacked(rx, src, 0);  // src is no packed frame
  EXPECT_THROW(SystemSimulator(unpacked_only, {}), std::invalid_argument);
}

TEST(SimulatorTest, EndToEndSmoke) {
  cpa::System sys;
  const auto bus = sys.add_resource({"bus", cpa::Policy::kSpnpCan});
  const auto cpu = sys.add_resource({"cpu", cpa::Policy::kSppPreemptive});
  const auto f = sys.add_task({"F", bus, 1, sched::ExecutionTime(4)});
  const auto t = sys.add_task({"T", cpu, 1, sched::ExecutionTime(10)});
  sys.activate_packed(f, {{StandardEventModel::periodic(100), SignalCoupling::kTriggering}});
  sys.activate_unpacked(t, f, 0);
  SystemSimulator::Options opts;
  opts.horizon = 10'000;
  opts.mode = GenMode::kNominal;
  const auto result = SystemSimulator(sys, opts).run();
  // ~100 source events -> ~100 frames -> ~100 task activations.
  EXPECT_NEAR(static_cast<double>(result.tasks.at("F").completions.size()), 100, 2);
  EXPECT_NEAR(static_cast<double>(result.tasks.at("T").activations.size()), 100, 2);
  EXPECT_EQ(result.tasks.at("T").wcrt, 10);
  // Every frame completes 4 after its trigger (idle bus) and delivers then.
  EXPECT_EQ(result.tasks.at("F").completions[0], 4);
  EXPECT_EQ(result.tasks.at("T").activations[0], 4);
}

}  // namespace
}  // namespace hem::sim
