// Unit and property tests of the curve-algebra lowering pass
// (src/rtc/compile.hpp):
//
//  * the flat sample arrays reproduce the lazy DAG bit-for-bit inside the
//    compiled horizon, and the try_* accessors refuse queries beyond it;
//  * the binary-search eta inversions match the generic galloping
//    derivation of the paper's eqs. (1)/(2);
//  * the emitted curve pair is exact on the sampled grid and conservative
//    beyond it (affine tails from super-/subadditivity);
//  * `ensure_compiled` publishes once (first-publication-wins) and the
//    transparent base-class fast path stays bit-identical across the
//    horizon boundary — swept over every EventModel subclass.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/combinators.hpp"
#include "core/delta_function_model.hpp"
#include "core/grouped_stream_model.hpp"
#include "core/leaky_bucket_model.hpp"
#include "core/offset_transaction_model.hpp"
#include "core/output_model.hpp"
#include "core/shaper.hpp"
#include "core/standard_event_model.hpp"
#include "core/trace_model.hpp"
#include "model/diagnostics.hpp"
#include "rtc/compile.hpp"

namespace hem::rtc {
namespace {

CompileOptions small_budget(Count max_horizon, Time time_horizon = 0) {
  CompileOptions opts;
  opts.max_horizon = max_horizon;
  opts.time_horizon = time_horizon;
  return opts;
}

TEST(CompileTest, DeltaSamplesMatchLazyInsideHorizon) {
  const auto model = StandardEventModel::periodic_with_jitter(100, 30);
  const auto c = CompiledModel::lower(*model, small_budget(32));
  for (Count n = 0; n <= c->delta_min_horizon(); ++n) {
    Time fast = -1;
    ASSERT_TRUE(c->try_delta_min(n, fast)) << "n=" << n;
    EXPECT_EQ(fast, model->delta_min_lazy(n)) << "n=" << n;
  }
  for (Count n = 0; n <= c->delta_plus_horizon(); ++n) {
    Time fast = -1;
    ASSERT_TRUE(c->try_delta_plus(n, fast)) << "n=" << n;
    EXPECT_EQ(fast, model->delta_plus_lazy(n)) << "n=" << n;
  }
}

TEST(CompileTest, QueriesBeyondHorizonAreRefused) {
  const auto model = StandardEventModel::periodic(50);
  const auto c = CompiledModel::lower(*model, small_budget(16));
  Time out = 0;
  Count n_out = 0;
  EXPECT_EQ(c->delta_min_horizon(), 17);  // 16 samples cover n in [2, 17]
  EXPECT_FALSE(c->try_delta_min(c->delta_min_horizon() + 1, out));
  EXPECT_FALSE(c->try_delta_plus(c->delta_plus_horizon() + 1, out));
  // eta of a span larger than every compiled sample may lie beyond the
  // horizon: the compiled form must hand over to the lazy path, not guess.
  EXPECT_FALSE(c->try_eta_plus(kTimeInfinity / 2, n_out));
  EXPECT_FALSE(c->try_eta_minus(kTimeInfinity / 2, n_out));
}

TEST(CompileTest, EtaInversionsMatchLazyGalloping) {
  const auto model = StandardEventModel::sporadic(100, 40, 10);
  const auto c = CompiledModel::lower(*model, small_budget(64));
  for (Time dt = 0; dt <= 2000; ++dt) {
    Count fast = -1;
    if (c->try_eta_plus(dt, fast)) EXPECT_EQ(fast, model->eta_plus_lazy(dt)) << "dt=" << dt;
    if (c->try_eta_minus(dt, fast)) EXPECT_EQ(fast, model->eta_minus_lazy(dt)) << "dt=" << dt;
  }
}

TEST(CompileTest, EtaZeroAndNegativeSpansAreZero) {
  const auto model = StandardEventModel::periodic(10);
  const auto c = CompiledModel::lower(*model, small_budget(8));
  Count out = -1;
  ASSERT_TRUE(c->try_eta_plus(0, out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(c->try_eta_minus(0, out));
  EXPECT_EQ(out, 0);
}

TEST(CompileTest, TimeHorizonStopsSamplingEarly) {
  const auto model = StandardEventModel::periodic(10);
  const auto c = CompiledModel::lower(*model, small_budget(1024, 100));
  // delta-(n) = 10 * (n - 1) reaches 100 at n = 11: sampling must stop
  // around there instead of burning the full 1024-sample budget.
  EXPECT_LT(c->delta_min_horizon(), 20);
  EXPECT_GE(c->delta_min_horizon(), 11);
  Time out = 0;
  ASSERT_TRUE(c->try_delta_min(11, out));
  EXPECT_EQ(out, 100);
}

TEST(CompileTest, FiniteTraceStopsAtInfinityAndHasNoUpperCurve) {
  // 5 events: delta-(n) and delta+(n) are infinite for n > 5.  The first
  // infinite sample is recorded (so n = 6 answers from the array) and then
  // sampling stops; no finite upper curve exists.
  const TraceModel model({0, 10, 25, 40, 70});
  const auto c = CompiledModel::lower(model, small_budget(64));
  EXPECT_EQ(c->delta_plus_horizon(), 6);
  EXPECT_EQ(c->upper_curve(), nullptr);
  Time out = 0;
  for (Count n = 2; n <= c->delta_min_horizon(); ++n) {
    ASSERT_TRUE(c->try_delta_min(n, out));
    EXPECT_EQ(out, model.delta_min_lazy(n));
  }
}

TEST(CompileTest, LowerCurveExactOnGridConservativeBeyond) {
  const auto model = StandardEventModel::periodic_with_jitter(100, 250);
  const auto c = CompiledModel::lower(*model, small_budget(24));
  const Curve& lo = c->lower_curve();
  for (Count n = 2; n <= c->delta_min_horizon(); ++n)
    EXPECT_EQ(lo.value(static_cast<Time>(n)), model->delta_min_lazy(n)) << "n=" << n;
  for (Count n = c->delta_min_horizon() + 1; n <= c->delta_min_horizon() + 32; ++n)
    EXPECT_LE(lo.value(static_cast<Time>(n)), model->delta_min_lazy(n)) << "n=" << n;
}

TEST(CompileTest, UpperCurveExactOnGridConservativeBeyond) {
  const auto model = StandardEventModel::periodic_with_jitter(100, 250);
  const auto c = CompiledModel::lower(*model, small_budget(24));
  ASSERT_NE(c->upper_curve(), nullptr);
  const Curve& up = *c->upper_curve();
  for (Count n = 2; n <= c->delta_plus_horizon(); ++n)
    EXPECT_EQ(up.value(static_cast<Time>(n)), model->delta_plus_lazy(n)) << "n=" << n;
  for (Count n = c->delta_plus_horizon() + 1; n <= c->delta_plus_horizon() + 32; ++n)
    EXPECT_GE(up.value(static_cast<Time>(n)), model->delta_plus_lazy(n)) << "n=" << n;
}

TEST(CompileTest, SimultaneousBurstEventsCompile) {
  // Bursts with inner distance 0 produce duplicate delta samples: the x = n
  // grid keeps them apart (one point per n), so the curve stays valid.
  const auto model = DeltaFunctionModel::periodic_burst(3, 0, 100);
  const auto c = CompiledModel::lower(*model, small_budget(32));
  for (Count n = 2; n <= c->delta_min_horizon(); ++n) {
    Time out = -1;
    ASSERT_TRUE(c->try_delta_min(n, out));
    EXPECT_EQ(out, model->delta_min_lazy(n));
  }
  for (Time dt = 0; dt <= 500; ++dt) {
    Count fast = -1;
    if (c->try_eta_plus(dt, fast)) EXPECT_EQ(fast, model->eta_plus_lazy(dt)) << "dt=" << dt;
  }
}

TEST(CompileTest, EnsureCompiledPublishesExactlyOnce) {
  const auto model = StandardEventModel::periodic(75);
  EXPECT_EQ(model->compiled(), nullptr);
  const CompiledModel& first = model->ensure_compiled(small_budget(16));
  EXPECT_EQ(model->compiled(), &first);
  // A second call with different options must return the already-published
  // form (pointer stability: callers may hold references across calls).
  const CompiledModel& second = model->ensure_compiled(small_budget(64));
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(&first.source(), model.get());
}

TEST(CompileTest, TransparentFastPathBitIdenticalAcrossHorizonBoundary) {
  // Every EventModel subclass: compile with a small horizon, then compare
  // the public (compiled-first) accessors against the lazy path on a fresh
  // twin node, across the horizon boundary where fallback kicks in.
  std::mt19937_64 rng(0xC09B11Eull);
  const auto range = [&](Time lo, Time hi) {
    return lo + static_cast<Time>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  const auto make_models = [&](int which, Time p, Time j) -> std::pair<ModelPtr, ModelPtr> {
    const auto build = [&]() -> ModelPtr {
      const ModelPtr base = StandardEventModel::periodic_with_jitter(p, j);
      switch (which) {
        case 0: return base;
        case 1: return StandardEventModel::sporadic(p, j, p / 2);
        case 2: return DeltaFunctionModel::periodic_burst(3, 2, p);
        case 3: return std::make_shared<LeakyBucketModel>(4, p);
        case 4: return std::make_shared<OffsetTransactionModel>(p, std::vector<Time>{0, p / 3}, 0);
        case 5: return std::make_shared<TraceModel>(std::vector<Time>{0, p, 2 * p, 3 * p + j});
        case 6: return std::make_shared<OrModel>(base, StandardEventModel::periodic(p + 7));
        case 7: return std::make_shared<OutputModel>(base, j / 2, j / 2 + p / 4);
        case 8: return std::make_shared<MinDistanceShaper>(base, p / 2);
        case 9: return std::make_shared<GroupedStreamModel>(base, 2, 5);
        case 10: return std::make_shared<cpa::SporadicEnvelopeModel>(j);
        default: return base;
      }
    };
    return {build(), build()};
  };
  for (int which = 0; which <= 10; ++which) {
    const Time p = range(10, 500);
    const Time j = range(0, 2 * p);
    const auto [compiled_one, lazy_twin] = make_models(which, p, j);
    const Count horizon = 12;
    compiled_one->ensure_compiled(small_budget(horizon));
    ASSERT_NE(compiled_one->compiled(), nullptr) << "which=" << which;
    for (Count n = 0; n <= horizon + 16; ++n) {
      EXPECT_EQ(compiled_one->delta_min(n), lazy_twin->delta_min(n))
          << "which=" << which << " n=" << n;
      EXPECT_EQ(compiled_one->delta_plus(n), lazy_twin->delta_plus(n))
          << "which=" << which << " n=" << n;
    }
    for (Time dt = 0; dt <= 4 * p; dt += std::max<Time>(1, p / 7)) {
      EXPECT_EQ(compiled_one->eta_plus(dt), lazy_twin->eta_plus(dt))
          << "which=" << which << " dt=" << dt;
      EXPECT_EQ(compiled_one->eta_minus(dt), lazy_twin->eta_minus(dt))
          << "which=" << which << " dt=" << dt;
    }
  }
}

}  // namespace
}  // namespace hem::rtc
