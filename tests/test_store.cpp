// Store layer: routers, the ShardedMap facade, and the cross-shard batch
// splitter — driven through the UniversalConstruction concept over both
// UC backends (plain Atom and CombiningAtom) × both routers × two
// structures (treap, AVL).
//
// The strongest checks are the oracle equivalences: a sharded map must be
// observationally identical to a std::set (point ops) and to a single
// unsharded UC fed the same request stream (batch split/reassembly) —
// same per-op results, same ordered contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <limits>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "core/universal.hpp"
#include "persist/avl.hpp"
#include "persist/btree.hpp"
#include "persist/external_bst.hpp"
#include "persist/rbt.hpp"
#include "persist/treap.hpp"
#include "persist/wbt.hpp"
#include "reclaim/epoch.hpp"
#include "store/router.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;
using Avl = persist::AvlTree<std::int64_t, std::int64_t>;
using Epoch = reclaim::EpochReclaimer;
using MA = alloc::MallocAlloc;
using PlainUc = core::Atom<T, Epoch, MA>;
using CombUc = core::CombiningAtom<T, Epoch, MA>;
using PlainAvlUc = core::Atom<Avl, Epoch, MA>;
using CombAvlUc = core::CombiningAtom<Avl, Epoch, MA>;
using CombBtreeUc =
    core::CombiningAtom<persist::BTree<std::int64_t, std::int64_t, 8>, Epoch,
                        MA>;
using CombRbtUc =
    core::CombiningAtom<persist::RbTree<std::int64_t, std::int64_t>, Epoch,
                        MA>;
using CombWbtUc =
    core::CombiningAtom<persist::WbTree<std::int64_t, std::int64_t>, Epoch,
                        MA>;
using CombEbstUc =
    core::CombiningAtom<persist::ExternalBst<std::int64_t, std::int64_t>,
                        Epoch, MA>;
using HashR = store::HashRouter<std::int64_t>;
using RangeR = store::RangeRouter<std::int64_t>;

// Both backends (and every structure in the sorted-batch matrix under
// them) model the concept the store layer is written against.
static_assert(core::UniversalConstruction<PlainUc>);
static_assert(core::UniversalConstruction<CombUc>);
static_assert(core::UniversalConstruction<PlainAvlUc>);
static_assert(core::UniversalConstruction<CombAvlUc>);
static_assert(core::UniversalConstruction<CombBtreeUc>);
static_assert(core::UniversalConstruction<CombRbtUc>);
static_assert(core::UniversalConstruction<CombWbtUc>);
static_assert(core::UniversalConstruction<CombEbstUc>);
static_assert(store::RouterFor<HashR, std::int64_t>);
static_assert(store::RouterFor<RangeR, std::int64_t>);

// ----- router properties -----

TEST(Router, HashEveryKeyMapsToExactlyOneShardDeterministically) {
  HashR r;
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    for (std::int64_t k = -1000; k <= 1000; ++k) {
      const std::size_t s = r(k, shards);
      ASSERT_LT(s, shards);
      ASSERT_EQ(s, r(k, shards));  // pure function of (key, shards)
    }
  }
}

TEST(Router, HashSpreadsContiguousKeys) {
  HashR r;
  constexpr std::size_t kShards = 8;
  std::array<std::size_t, kShards> hits{};
  for (std::int64_t k = 0; k < 4096; ++k) ++hits[r(k, kShards)];
  for (std::size_t s = 0; s < kShards; ++s) {
    // 4096 keys over 8 shards: each shard should see a healthy share.
    EXPECT_GT(hits[s], 4096u / kShards / 4) << "shard " << s;
  }
}

TEST(Router, RangeIsMonotoneAndCoversEveryShard) {
  const auto r = RangeR::uniform(0, 1000, 4);
  EXPECT_TRUE(r.compatible(4));
  EXPECT_FALSE(r.compatible(3));
  std::size_t prev = 0;
  std::array<bool, 4> hit{};
  for (std::int64_t k = -50; k < 1050; ++k) {
    const std::size_t s = r(k, 4);
    ASSERT_LT(s, 4u);
    ASSERT_GE(s, prev) << "range router must be monotone at key " << k;
    prev = s;
    hit[s] = true;
  }
  for (bool h : hit) EXPECT_TRUE(h);
}

TEST(Router, RangeUniformSplitsFullWidthRangesWithoutOverflow) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto r = RangeR::uniform(kMin, kMax, 8);
  EXPECT_TRUE(r.compatible(8));
  EXPECT_EQ(r(kMin, 8), 0u);
  EXPECT_EQ(r(0, 8), 4u);  // midpoint lands in the middle shard
  EXPECT_EQ(r(kMax - 1, 8), 7u);
  std::size_t prev = 0;
  const std::array<std::int64_t, 7> probes{
      kMin, kMin / 2, -1000000007, 0, 1000000007, kMax / 2, kMax};
  for (const std::int64_t k : probes) {
    const std::size_t s = r(k, 8);
    ASSERT_GE(s, prev);
    prev = s;
  }
}

// Fitted split points must satisfy every invariant the uniform ones do:
// exactly one shard per key, monotone half-open coverage — plus the
// fitting property (each shard draws ~an equal share of the sampled
// load) and graceful degeneration under heavy duplication.
TEST(Router, RangeBoundsAreHalfOpen) {
  const RangeR r(std::vector<std::int64_t>{10, 20});
  EXPECT_EQ(r(9, 3), 0u);
  EXPECT_EQ(r(10, 3), 1u);  // shard i owns [bounds[i-1], bounds[i])
  EXPECT_EQ(r(19, 3), 1u);
  EXPECT_EQ(r(20, 3), 2u);
  EXPECT_EQ(r(1000, 3), 2u);
}

// ----- typed store tests: backend × router × structure -----

// Key window the range routers split; tests keep keys inside it only
// where shard coverage matters (routers handle out-of-window keys too).
constexpr std::int64_t kLo = -64;
constexpr std::int64_t kHi = 1088;

template <class UcT, class RouterT>
struct Combo {
  using Uc = UcT;
  using Router = RouterT;
  using Map = store::ShardedMap<Uc, Router>;

  static Router make_router(std::size_t shards) {
    if constexpr (Router::kOrderPreserving) {
      return shards == 1 ? Router{} : Router::uniform(kLo, kHi, shards);
    } else {
      (void)shards;
      return Router{};
    }
  }
};

template <class C>
class StoreTyped : public ::testing::Test {};

using Combos =
    ::testing::Types<Combo<PlainUc, HashR>, Combo<PlainUc, RangeR>,
                     Combo<CombUc, HashR>, Combo<CombUc, RangeR>,
                     Combo<PlainAvlUc, RangeR>, Combo<CombAvlUc, HashR>,
                     Combo<CombBtreeUc, RangeR>, Combo<CombRbtUc, HashR>,
                     Combo<CombWbtUc, RangeR>, Combo<CombEbstUc, HashR>>;
TYPED_TEST_SUITE(StoreTyped, Combos);

TYPED_TEST(StoreTyped, PointOpsMatchSetOracle) {
  MA a;
  {
    typename TypeParam::Map map(4, a, TypeParam::make_router(4));
    typename TypeParam::Map::Session session(map, a);
    std::set<std::int64_t> oracle;
    util::Xoshiro256 rng(42);
    for (int i = 0; i < 3000; ++i) {
      const std::int64_t k = rng.range(0, 500);
      if (rng.chance(1, 2)) {
        ASSERT_EQ(session.insert(k, k * 3), oracle.insert(k).second);
      } else {
        ASSERT_EQ(session.erase(k), oracle.erase(k) > 0);
      }
    }
    ASSERT_EQ(session.size(), oracle.size());
    for (const std::int64_t k : {std::int64_t{0}, std::int64_t{250}}) {
      ASSERT_EQ(session.contains(k), oracle.contains(k));
      const auto v = session.find(k);
      ASSERT_EQ(v.has_value(), oracle.contains(k));
      if (v) {
        ASSERT_EQ(*v, k * 3);
      }
    }
    // Ordered iteration composed across shards matches the sorted oracle.
    std::vector<std::int64_t> expect(oracle.begin(), oracle.end());
    std::vector<std::int64_t> got;
    session.for_each_ordered(
        [&](const std::int64_t& k, const std::int64_t& v) {
          got.push_back(k);
          ASSERT_EQ(v, k * 3);
        });
    ASSERT_EQ(got, expect);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(StoreTyped, BatchSplitMatchesSingleAtomOracle) {
  using Uc = typename TypeParam::Uc;
  using Req = typename Uc::BatchRequest;
  using K = typename Uc::OpKind;
  MA a1, a2;
  {
    typename TypeParam::Map map(5, a1, TypeParam::make_router(5));
    typename TypeParam::Map::Session session(map, a1);
    Epoch smr;
    Uc oracle(smr, a2);
    typename Uc::Ctx octx(smr, a2);

    util::Xoshiro256 rng(7);
    for (int iter = 0; iter < 25; ++iter) {
      const int n = 1 + static_cast<int>(rng.range(0, 39));
      std::vector<Req> reqs;
      for (int i = 0; i < n; ++i) {
        const std::int64_t k = rng.range(0, 80);  // dense: same-key chains
        if (rng.chance(1, 2)) {
          reqs.push_back(Req{K::kInsert, k, k + 1000 * iter + i});
        } else {
          reqs.push_back(Req{K::kErase, k, std::nullopt});
        }
      }
      bool got[48], want[48];
      session.execute_batch(reqs, std::span<bool>(got, reqs.size()));
      oracle.execute_batch(octx, reqs, std::span<bool>(want, reqs.size()));
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "iter " << iter << " op " << i;
      }
    }
    const auto got_items = session.items();
    const auto want_items =
        oracle.read(octx, [](auto snapshot) { return snapshot.items(); });
    ASSERT_EQ(got_items, want_items);
  }
  EXPECT_EQ(a1.stats().live_blocks(), 0u);
  EXPECT_EQ(a2.stats().live_blocks(), 0u);
}

TYPED_TEST(StoreTyped, SeedSortedPartitionsAcrossShards) {
  MA a;
  {
    typename TypeParam::Map map(4, a, TypeParam::make_router(4));
    typename TypeParam::Map::Session session(map, a);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < 1024; k += 2) items.emplace_back(k, k * 7);
    session.seed_sorted(items.begin(), items.end());
    ASSERT_EQ(session.size(), items.size());
    ASSERT_EQ(session.items(), items);
    // The seeded map stays updatable through the same session.
    EXPECT_TRUE(session.insert(1, 7));
    EXPECT_FALSE(session.insert(0, 99));  // present from the seed
    EXPECT_TRUE(session.erase(2));
    ASSERT_EQ(session.size(), items.size());  // +1 insert, -1 erase
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(StoreTyped, ContendedNetEffectReconcilesAcrossShards) {
  MA a;
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  {
    typename TypeParam::Map map(4, a, TypeParam::make_router(4));
    std::array<std::atomic<std::int64_t>, kKeys> net{};
    store::ShardStatsBoard board(4);
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename TypeParam::Map::Session session(map, a);
        util::Xoshiro256 rng(w + 17);
        for (int i = 0; i < 2500; ++i) {
          const std::int64_t k = rng.range(0, kKeys - 1);
          if (rng.chance(1, 2)) {
            if (session.insert(k, k)) net[k].fetch_add(1);
          } else {
            if (session.erase(k)) net[k].fetch_sub(1);
          }
        }
        session.fold_into(board);
      });
    }
    for (auto& w : workers) w.join();
    typename TypeParam::Map::Session session(map, a);
    std::size_t present_count = 0;
    for (int k = 0; k < kKeys; ++k) {
      const std::int64_t n = net[k].load();
      ASSERT_TRUE(n == 0 || n == 1) << "key " << k << " net " << n;
      ASSERT_EQ(session.contains(k), n == 1) << "key " << k;
      present_count += static_cast<std::size_t>(n);
    }
    ASSERT_EQ(session.size(), present_count);
    // The board saw every install the workers performed: per-shard rows
    // sum to the total, and something actually ran.
    core::OpStats sum;
    for (std::size_t s = 0; s < board.shards(); ++s) sum += board.shard(s);
    EXPECT_EQ(sum.updates, board.total().updates);
    EXPECT_EQ(sum.attempts, board.total().attempts);
    EXPECT_GT(board.total().attempts, 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(StoreTyped, StatsRollupsMatchSessionCounters) {
  MA a;
  {
    typename TypeParam::Map map(3, a, TypeParam::make_router(3));
    typename TypeParam::Map::Session session(map, a);
    for (std::int64_t k = 0; k < 200; ++k) session.insert(k, k);
    for (std::int64_t k = 0; k < 200; k += 2) session.erase(k);
    const core::OpStats total = session.stats();
    core::OpStats by_shard;
    for (std::size_t s = 0; s < 3; ++s) by_shard += session.shard_stats(s);
    EXPECT_EQ(by_shard.updates, total.updates);
    EXPECT_EQ(by_shard.attempts, total.attempts);
    EXPECT_EQ(by_shard.reads, total.reads);
    store::ShardStatsBoard board(3);
    board.add_session(session);
    EXPECT_EQ(board.total().updates, total.updates);
    // Every op completed exactly once, whichever backend ran it.
    EXPECT_EQ(total.updates + total.noop_updates + total.helped_completions,
              300u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// A single-shard map over either backend behaves exactly like the bare
// UC — the degenerate configuration the facade must not tax.
TYPED_TEST(StoreTyped, SingleShardDegeneratesToBareUc) {
  MA a;
  {
    typename TypeParam::Map map(1, a, TypeParam::make_router(1));
    typename TypeParam::Map::Session session(map, a);
    EXPECT_TRUE(session.insert(5, 50));
    EXPECT_FALSE(session.insert(5, 51));
    EXPECT_EQ(session.find(5), std::optional<std::int64_t>(50));
    EXPECT_TRUE(session.erase(5));
    EXPECT_EQ(session.size(), 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
