// Concurrency stress tests of the lock-free model-cache hot path: many
// threads hammer the SAME EventModel / OutputModel nodes and every answer
// must match a single-threaded reference evaluated on an identical but
// private model.  Built to run under TSan (the CI tsan job includes this
// suite): the segmented memo cache (core/curve_cache.hpp) and the
// OutputModel recursion arena publish with acquire/release, so any missing
// ordering shows up as a data-race report here.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/combinators.hpp"
#include "core/curve_cache.hpp"
#include "core/output_model.hpp"
#include "core/standard_event_model.hpp"

namespace hem {
namespace {

constexpr int kThreads = 8;
constexpr Count kMaxN = 600;

/// A small output-model chain over an OR of jittered sources — the shape
/// the engine queries hottest (gateway task outputs).
ModelPtr make_chain() {
  std::vector<ModelPtr> sources = {
      StandardEventModel::periodic_with_jitter(100, 30),
      StandardEventModel::periodic_with_jitter(70, 15),
      StandardEventModel::sporadic(250, 40, 50),
  };
  ModelPtr m = or_combine(sources);
  m = std::make_shared<OutputModel>(m, 5, 40);
  m = std::make_shared<OutputModel>(m, 2, 25);
  return m;
}

/// Run `fn(thread_rank)` on kThreads threads after a start barrier, so all
/// threads hit the cold caches together.
void hammer(const std::function<void(int)>& fn) {
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      fn(w);
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(ConcurrentModelStressTest, SharedChainMatchesSerialReference) {
  const ModelPtr reference = make_chain();  // queried single-threaded only
  std::vector<Time> ref_dmin(static_cast<std::size_t>(kMaxN) + 1, 0);
  std::vector<Time> ref_dplus(static_cast<std::size_t>(kMaxN) + 1, 0);
  for (Count n = 2; n <= kMaxN; ++n) {
    ref_dmin[static_cast<std::size_t>(n)] = reference->delta_min(n);
    ref_dplus[static_cast<std::size_t>(n)] = reference->delta_plus(n);
  }

  const ModelPtr shared = make_chain();
  std::atomic<int> mismatches{0};
  hammer([&](int rank) {
    // Each thread walks the index space in a different order: even ranks
    // ascend, odd ranks descend, with a rank-dependent stride so threads
    // collide on cold slots instead of marching in lockstep.
    const Count stride = 1 + rank % 3;
    for (Count i = 0; i <= kMaxN; i += stride) {
      const Count n = 2 + (rank % 2 == 0 ? i : kMaxN - i) % (kMaxN - 1);
      if (shared->delta_min(n) != ref_dmin[static_cast<std::size_t>(n)]) mismatches++;
      if (shared->delta_plus(n) != ref_dplus[static_cast<std::size_t>(n)]) mismatches++;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentModelStressTest, EtaQueriesRaceDeltaQueries) {
  const ModelPtr reference = make_chain();
  std::vector<Count> ref_eta;
  for (Time dt = 1; dt <= 4000; dt += 37) ref_eta.push_back(reference->eta_plus(dt));

  const ModelPtr shared = make_chain();
  std::atomic<int> mismatches{0};
  hammer([&](int rank) {
    if (rank % 2 == 0) {
      // eta+ gallops over delta- internally: racing it against direct
      // delta queries exercises concurrent growth of the same cache.
      std::size_t k = 0;
      for (Time dt = 1; dt <= 4000; dt += 37, ++k)
        if (shared->eta_plus(dt) != ref_eta[k]) mismatches++;
    } else {
      for (Count n = kMaxN; n >= 2; --n) (void)shared->delta_min(n);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentModelStressTest, OutputRecursionPrefixIsConsistent) {
  // Deep recursion prefix: concurrent extenders publish overlapping
  // prefixes via CAS-max; every published slot must already carry its
  // final value.
  const ModelPtr reference =
      std::make_shared<OutputModel>(StandardEventModel::periodic_with_jitter(50, 200), 3, 90);
  std::vector<Time> ref(static_cast<std::size_t>(kMaxN) + 1, 0);
  for (Count n = 2; n <= kMaxN; ++n) ref[static_cast<std::size_t>(n)] = reference->delta_min(n);

  const ModelPtr shared =
      std::make_shared<OutputModel>(StandardEventModel::periodic_with_jitter(50, 200), 3, 90);
  std::atomic<int> mismatches{0};
  hammer([&](int rank) {
    // Ranks start at different depths, so some threads extend while others
    // read back published prefixes.
    for (Count n = 2 + rank * 71 % 200; n <= kMaxN; ++n)
      if (shared->delta_min(n) != ref[static_cast<std::size_t>(n)]) mismatches++;
    for (Count n = kMaxN; n >= 2; n -= 7)
      if (shared->delta_min(n) != ref[static_cast<std::size_t>(n)]) mismatches++;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentModelStressTest, OrMergePrefixIsConsistent) {
  // One shared OR node whose delta- merge prefix (split counts published by
  // CAS-max) is extended by several threads at once, while others run the
  // output model's eta+ scan over it.  Every answer must match a private,
  // serially evaluated twin.
  const auto make_or = [] {
    return std::make_shared<OrModel>(StandardEventModel::periodic_with_jitter(37, 90),
                                     StandardEventModel::sporadic(53, 20, 11));
  };
  const ModelPtr ref_or = make_or();
  const ModelPtr ref_out = std::make_shared<OutputModel>(make_or(), 2, 30);
  std::vector<Time> ref_dmin(static_cast<std::size_t>(kMaxN) + 1, 0);
  std::vector<Count> ref_eta(static_cast<std::size_t>(kMaxN) + 1, 0);
  for (Count n = 2; n <= kMaxN; ++n) {
    ref_dmin[static_cast<std::size_t>(n)] = ref_or->delta_min(n);
    ref_eta[static_cast<std::size_t>(n)] = ref_out->eta_plus(n * 9);
  }

  const auto shared_or = make_or();
  const ModelPtr shared_out = std::make_shared<OutputModel>(shared_or, 2, 30);
  std::atomic<int> mismatches{0};
  hammer([&](int rank) {
    if (rank % 2 == 0) {
      for (Count n = 2 + rank * 53 % 300; n <= kMaxN; n += 1 + rank % 3) {
        if (shared_or->delta_min(n) != ref_dmin[static_cast<std::size_t>(n)]) mismatches++;
      }
    } else {
      for (Count n = kMaxN; n >= 2; n -= 1 + rank % 5) {
        if (shared_out->eta_plus(n * 9) != ref_eta[static_cast<std::size_t>(n)]) mismatches++;
      }
    }
    for (Count n = 2; n <= kMaxN; n += 13) {
      if (shared_or->delta_min(n) != ref_dmin[static_cast<std::size_t>(n)]) mismatches++;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(AtomicCurveCacheTest, StoreThenLoadRoundTrips) {
  AtomicCurveCache cache;
  EXPECT_EQ(cache.load(0), AtomicCurveCache::kUnset);
  EXPECT_EQ(cache.store(0, 42), AtomicCurveCache::StoreResult::kStored);
  EXPECT_EQ(cache.load(0), 42);
  EXPECT_EQ(cache.store(0, 42), AtomicCurveCache::StoreResult::kDuplicate);
  // Far index lands in a high segment, untouched slots stay unset.
  EXPECT_EQ(cache.store(100000, 7), AtomicCurveCache::StoreResult::kStored);
  EXPECT_EQ(cache.load(100000), 7);
  EXPECT_EQ(cache.load(99999), AtomicCurveCache::kUnset);
  EXPECT_EQ(cache.store(AtomicCurveCache::kCapacity, 1),
            AtomicCurveCache::StoreResult::kOverflow);
}

TEST(AtomicCurveCacheTest, StoreReportsOnlyItsOwnSegmentAllocations) {
  // The allocated out-param must report THIS call's segment publication,
  // never a cache-wide delta: counter attribution used to diff
  // `allocations()` around a store, misattributing concurrent work units'
  // allocations to whichever publish happened to observe them.
  AtomicCurveCache cache;
  bool allocated = false;
  EXPECT_EQ(cache.store(0, 11, allocated), AtomicCurveCache::StoreResult::kStored);
  EXPECT_TRUE(allocated);  // first touch of segment 0
  EXPECT_EQ(cache.store(1, 22, allocated), AtomicCurveCache::StoreResult::kStored);
  EXPECT_FALSE(allocated);  // segment 0 already exists
  EXPECT_EQ(cache.store(0, 11, allocated), AtomicCurveCache::StoreResult::kDuplicate);
  EXPECT_FALSE(allocated);
  // A far index publishes a fresh segment exactly once.
  EXPECT_EQ(cache.store(100000, 7, allocated), AtomicCurveCache::StoreResult::kStored);
  EXPECT_TRUE(allocated);
  EXPECT_EQ(cache.store(100001, 8, allocated), AtomicCurveCache::StoreResult::kStored);
  EXPECT_FALSE(allocated);
}

TEST(AtomicCurveCacheTest, ConcurrentFillIsLossless) {
  AtomicCurveCache cache;
  constexpr std::size_t kSlots = 20000;
  hammer([&](int rank) {
    for (std::size_t i = static_cast<std::size_t>(rank); i < kSlots; i += kThreads)
      (void)cache.store(i, static_cast<Time>(i) * 3);
    for (std::size_t i = 0; i < kSlots; ++i) {
      const Time v = cache.load(i);
      if (v != AtomicCurveCache::kUnset) ASSERT_EQ(v, static_cast<Time>(i) * 3);
    }
  });
  for (std::size_t i = 0; i < kSlots; ++i) ASSERT_EQ(cache.load(i), static_cast<Time>(i) * 3);
  EXPECT_GT(cache.allocations(), 0);
}

}  // namespace
}  // namespace hem
