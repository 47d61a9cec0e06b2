// Smoke test of the umbrella header: every public subsystem is reachable
// through #include "hem/hem.hpp" alone, and the one-page quickstart from
// the README compiles and produces sane numbers.

#include "hem/hem.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using namespace hem;

TEST(PublicApiTest, ReadmeQuickstartWorks) {
  // Signal streams (Table 1 of the paper).
  auto s1 = StandardEventModel::periodic(250);
  auto s3 = StandardEventModel::periodic(1000);

  // Pack them into a frame.
  HemPtr frame = pack({{s1, SignalCoupling::kTriggering}, {s3, SignalCoupling::kPending}});

  // Analyse the bus; apply the response interval to the hierarchical stream.
  sched::LocalAnalysis bus(sched::Policy::kSpnpCan,
                           {{"F1", 1, sched::ExecutionTime(4), frame->outer()}});
  auto rt = bus.analyze(0);
  HemPtr out = frame->after_response(rt.bcrt, rt.wcrt);

  // Unpack: per-signal receiver activation models.
  ModelPtr t1_activation = out->inner(0);
  ModelPtr t3_activation = out->inner(1);

  EXPECT_EQ(rt.wcrt, 4);
  EXPECT_GT(t1_activation->delta_min(2), 200);
  EXPECT_LE(t3_activation->eta_plus(10'000), 12);
}

TEST(PublicApiTest, EverySubsystemIsReachable) {
  // core
  EXPECT_EQ(StandardEventModel::periodic(10)->eta_plus(25), 3);
  EXPECT_NO_THROW(DeltaFunctionModel::periodic_burst(2, 1, 10));
  EXPECT_NO_THROW(LeakyBucketModel(2, 5));
  EXPECT_NO_THROW(OffsetTransactionModel(100, {0, 30}));
  EXPECT_NO_THROW(GroupedStreamModel(StandardEventModel::periodic(10), 2, 0));
  EXPECT_NO_THROW(fit_sem(*StandardEventModel::periodic(100)));
  // sched
  EXPECT_NO_THROW(sched::PeriodicServer(10, 5));
  EXPECT_NO_THROW(sched::BoundedDelayServer(5, 1, 2));
  // rtc
  EXPECT_EQ(rtc::full_service().value(7), 7);
  EXPECT_NO_THROW(rtc::upper_arrival_from(*StandardEventModel::periodic(10)));
  // io
  std::ostringstream os;
  io::write_trace_csv(os, std::vector<Time>{1, 2, 3});
  EXPECT_EQ(os.str(), "1\n2\n3\n");
  // com
  EXPECT_EQ(com::ethernet_frame_time(46, 1).worst, 84);
}

}  // namespace
