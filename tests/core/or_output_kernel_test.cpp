// Exact kernels of the OR and output nodes against brute force, on seeded
// random DAGs of SEM, leaky-bucket, trace, envelope, OR, output and pack
// nodes:
//
//  * OrModel delta- (the merge of the children's delta- sequences) against
//    eq. (3) evaluated over every split, min_k max(delta-_l(k), delta-_r(n-k));
//  * OrModel eta+ (the sum of the children's eta+) and OutputModel eta+ (the
//    prefix search / forward scan) against the generic eq.-(1) galloping
//    inversion of the same node's delta-, and against a linear scan;
//  * children with infinite delta- (finite traces) and the
//    kEtaSearchCeiling boundary, where the inversion reports an unbounded
//    burst.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/combinators.hpp"
#include "core/leaky_bucket_model.hpp"
#include "core/output_model.hpp"
#include "core/standard_event_model.hpp"
#include "core/trace_model.hpp"
#include "hierarchical/pack_constructor.hpp"
#include "model/diagnostics.hpp"

namespace hem {
namespace {

/// Forwards delta- and delta+ of `inner` and keeps the base class's generic
/// galloping eta inversion, i.e. eq. (1) with no closed form.
class GenericInversion final : public EventModel {
 public:
  explicit GenericInversion(ModelPtr inner) : inner_(std::move(inner)) {}
  [[nodiscard]] std::string describe() const override {
    return "Generic(" + inner_->describe() + ")";
  }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override { return inner_->delta_min(n); }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return inner_->delta_plus(n); }

 private:
  ModelPtr inner_;
};

/// eq. (3) over every split of n events.
Time brute_or_delta_min(const EventModel& l, const EventModel& r, Count n) {
  Time best = kTimeInfinity;
  for (Count k = 0; k <= n; ++k)
    best = std::min(best, std::max(l.delta_min(k), r.delta_min(n - k)));
  return best;
}

/// eq. (1) by linear scan; -1 when the answer lies beyond `limit` events.
Count scan_eta_plus(const EventModel& m, Time dt, Count limit) {
  if (dt <= 0) return 0;
  if (m.delta_min(2) >= dt) return 1;
  for (Count n = 3; n <= limit; ++n)
    if (m.delta_min(n) >= dt) return n - 1;
  return -1;
}

struct Dag {
  std::vector<ModelPtr> all;
  std::vector<std::shared_ptr<const OrModel>> ors;
  std::vector<std::shared_ptr<const OutputModel>> outputs;
};

class DagBuilder {
 public:
  explicit DagBuilder(std::uint64_t seed) : rng_(seed) {}

  Dag build() {
    Dag dag;
    for (int i = 0; i < 4; ++i) dag.all.push_back(leaf());
    for (int i = 0; i < 10; ++i) {
      const ModelPtr a = pick(dag);
      const ModelPtr b = pick(dag);
      switch (range(0, 3)) {
        case 0: {
          auto node = std::make_shared<const OrModel>(a, b);
          dag.ors.push_back(node);
          dag.all.push_back(node);
          break;
        }
        case 1: {
          const Time r_minus = range(0, 8);
          auto node = std::make_shared<const OutputModel>(a, r_minus, r_minus + range(0, 60));
          dag.outputs.push_back(node);
          dag.all.push_back(node);
          break;
        }
        case 2: {
          // A pack: its outer stream is an OR of the triggering inputs plus
          // the timer; the pending input's inner stream queries it.
          const HemPtr hem =
              pack({{a, SignalCoupling::kTriggering}, {b, SignalCoupling::kPending}},
                   StandardEventModel::periodic(range(20, 200)));
          dag.all.push_back(hem->outer());
          dag.all.push_back(hem->inner(1));
          if (auto node = std::dynamic_pointer_cast<const OrModel>(hem->outer()))
            dag.ors.push_back(node);
          break;
        }
        default:
          dag.all.push_back(leaf());
      }
    }
    return dag;
  }

 private:
  Time range(Time lo, Time hi) {
    return lo + static_cast<Time>(rng_() % static_cast<std::uint64_t>(hi - lo + 1));
  }

  ModelPtr pick(const Dag& dag) {
    return dag.all[static_cast<std::size_t>(range(0, static_cast<Time>(dag.all.size()) - 1))];
  }

  ModelPtr leaf() {
    switch (range(0, 3)) {
      case 0: {
        const Time period = range(5, 120);
        return std::make_shared<StandardEventModel>(period, range(0, 3 * period),
                                                    range(0, 1) * range(0, period));
      }
      case 1:
        return std::make_shared<LeakyBucketModel>(range(1, 4), range(3, 80));
      case 2: {
        // A finite trace: delta- is infinite beyond its length.
        std::vector<Time> ts;
        Time t = 0;
        const Time len = range(2, 6);
        for (Time i = 0; i < len; ++i) ts.push_back(t += range(0, 60));
        return std::make_shared<TraceModel>(std::move(ts));
      }
      default:
        return std::make_shared<cpa::SporadicEnvelopeModel>(range(1, 40));
    }
  }

  std::mt19937_64 rng_;
};

/// dt samples around the node's own delta- values.
std::vector<Time> dt_samples(const EventModel& m) {
  std::vector<Time> dts{1, 2, 3, 50, 997};
  for (Count n = 2; n <= 120; n += 7) {
    const Time d = m.delta_min(n);
    if (is_infinite(d)) break;
    dts.push_back(d);
    dts.push_back(d + 1);
  }
  return dts;
}

constexpr Count kScanLimit = 4096;

TEST(OrOutputKernels, OrDeltaMinMatchesEveryEq3Split) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Dag dag = DagBuilder(seed).build();
    for (const auto& node : dag.ors) {
      // Query in a scrambled order so slots are served from the published
      // prefix as well as by extending it.
      for (const Count n : {Count{37}, Count{5}, Count{90}, Count{2}, Count{61}})
        EXPECT_EQ(node->delta_min(n), brute_or_delta_min(*node->left(), *node->right(), n))
            << "seed " << seed << " n=" << n << " " << node->describe();
      for (Count n = 2; n <= 120; ++n)
        ASSERT_EQ(node->delta_min(n), brute_or_delta_min(*node->left(), *node->right(), n))
            << "seed " << seed << " n=" << n << " " << node->describe();
    }
  }
}

TEST(OrOutputKernels, OrEtaPlusSumMatchesTheInversion) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Dag dag = DagBuilder(seed).build();
    for (const auto& node : dag.ors) {
      const GenericInversion generic(node);
      for (const Time dt : dt_samples(*node)) {
        const Count kernel = node->eta_plus(dt);
        EXPECT_EQ(kernel, generic.eta_plus(dt))
            << "seed " << seed << " dt=" << dt << " " << node->describe();
        const Count scanned = scan_eta_plus(*node, dt, kScanLimit);
        if (scanned >= 0) {
          EXPECT_EQ(kernel, scanned) << "seed " << seed << " dt=" << dt;
        }
      }
    }
  }
}

TEST(OrOutputKernels, OutputEtaPlusScanMatchesTheGallop) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Dag dag = DagBuilder(seed).build();
    for (const auto& node : dag.outputs) {
      const GenericInversion generic(node);
      // Large dt first (the forward scan grows the prefix), then the samples
      // (the binary search of the published prefix).
      for (const Time dt : {Time{5000}, Time{400}}) {
        EXPECT_EQ(node->eta_plus(dt), generic.eta_plus(dt));
      }
      for (const Time dt : dt_samples(*node)) {
        const Count kernel = node->eta_plus(dt);
        EXPECT_EQ(kernel, generic.eta_plus(dt))
            << "seed " << seed << " dt=" << dt << " " << node->describe();
        const Count scanned = scan_eta_plus(*node, dt, kScanLimit);
        if (scanned >= 0) {
          EXPECT_EQ(kernel, scanned) << "seed " << seed << " dt=" << dt;
        }
      }
    }
  }
}

TEST(OrOutputKernels, FiniteChildrenBoundTheOrCount) {
  // Two finite traces: delta- is infinite beyond 3 + 4 merged events, and
  // eta+ of any window stops at 7.
  const auto l = std::make_shared<TraceModel>(std::vector<Time>{0, 10, 20});
  const auto r = std::make_shared<TraceModel>(std::vector<Time>{5, 6, 40, 41});
  const OrModel node(l, r);
  EXPECT_EQ(node.delta_min(7), brute_or_delta_min(*l, *r, 7));
  EXPECT_TRUE(is_infinite(node.delta_min(8)));
  EXPECT_EQ(node.eta_plus(1'000'000), 7);
  const GenericInversion generic(std::make_shared<OrModel>(l, r));
  EXPECT_EQ(node.eta_plus(1'000'000), generic.eta_plus(1'000'000));
}

TEST(OrOutputKernels, OrEtaPlusKeepsTheSearchCeiling) {
  // Two streams of one event per tick: eta+(dt) = dt each and
  // delta-_or(n) = floor((n - 1) / 2).  The generic inversion reports an
  // unbounded burst exactly when delta-_or(2^24) < dt, i.e. when the
  // count reaches the ceiling.
  const auto tick = StandardEventModel::periodic(1);
  const OrModel node(tick, tick);
  const Time half = kEtaSearchCeiling / 2;
  EXPECT_EQ(node.delta_min(kEtaSearchCeiling), half - 1);  // beyond the merge table
  EXPECT_EQ(node.eta_plus(half - 1), kEtaSearchCeiling - 2);
  EXPECT_TRUE(is_infinite_count(node.eta_plus(half)));
  // An unbounded child makes the OR unbounded.
  const OrModel burst(tick, std::make_shared<cpa::SporadicEnvelopeModel>(0));
  EXPECT_TRUE(is_infinite_count(burst.eta_plus(10)));
}

}  // namespace
}  // namespace hem
