#include "core/leaky_bucket_model.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"
#include "sched/local_analysis.hpp"

namespace hem {
namespace {

TEST(LeakyBucketModelTest, DeltaCurves) {
  const LeakyBucketModel m(3, 10);
  EXPECT_EQ(m.delta_min(2), 0);
  EXPECT_EQ(m.delta_min(3), 0);
  EXPECT_EQ(m.delta_min(4), 10);
  EXPECT_EQ(m.delta_min(10), 70);
  EXPECT_TRUE(is_infinite(m.delta_plus(2)));
}

TEST(LeakyBucketModelTest, EtaPlusIsAffine) {
  const LeakyBucketModel m(3, 10);
  EXPECT_EQ(m.eta_plus(1), 3);
  EXPECT_EQ(m.eta_plus(10), 3);
  EXPECT_EQ(m.eta_plus(11), 4);
  EXPECT_EQ(m.eta_plus(101), 13);
  EXPECT_EQ(m.eta_minus(1'000'000), 0);  // no lower bound
}

TEST(LeakyBucketModelTest, BucketOfOneIsSporadic) {
  const LeakyBucketModel bucket(1, 25);
  // delta-(n) = (n-1)*25, same eta+ as a sporadic stream with dmin 25.
  const auto sporadic = StandardEventModel::sporadic(25, 0, 25);
  for (Time dt = 1; dt <= 500; dt += 7)
    EXPECT_EQ(bucket.eta_plus(dt), sporadic->eta_plus(dt)) << dt;
}

TEST(LeakyBucketModelTest, DrivesInterferenceAnalysis) {
  // A leaky-bucket interferer in a response-time analysis.
  sched::LocalAnalysis a(sched::Policy::kSppPreemptive,
                         {
                             sched::TaskParams{"bucket", 1, sched::ExecutionTime(2),
                                               std::make_shared<LeakyBucketModel>(3, 50)},
                             sched::TaskParams{"victim", 2, sched::ExecutionTime(5),
                                               StandardEventModel::periodic(200)},
                         });
  // Victim: burst of 3 x 2 up front, then drained: w = 5 + 6 = 11.
  EXPECT_EQ(a.analyze(1).wcrt, 11);
}

TEST(LeakyBucketModelTest, ValidationErrors) {
  EXPECT_THROW(LeakyBucketModel(0, 10), std::invalid_argument);
  EXPECT_THROW(LeakyBucketModel(2, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hem
