#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "persist/rbt.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using R = persist::RbTree<std::int64_t, std::int64_t>;

template <class Alloc>
R insert_all(Alloc& al, R t, const std::vector<std::int64_t>& keys) {
  for (const auto k : keys) {
    t = test::apply(al, [&](auto& b) { return t.insert(b, k, k * 10); });
  }
  return t;
}

std::vector<std::int64_t> iota_keys(std::int64_t n) {
  std::vector<std::int64_t> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) keys.push_back(i);
  return keys;
}

TEST(Rbt, EmptyBasics) {
  R t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_EQ(t.black_height(), 0u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.min_node(), nullptr);
  EXPECT_EQ(t.max_node(), nullptr);
}

TEST(Rbt, AscendingInsertKeepsRedBlackContract) {
  alloc::Arena a;
  R t = insert_all(a, R{}, iota_keys(1024));
  EXPECT_EQ(t.size(), 1024u);
  EXPECT_TRUE(t.check_invariants());
  // Red-black height bound: <= 2 log2(n+1) = 20 for n=1024.
  EXPECT_LE(t.height(), 20u);
}

TEST(Rbt, DescendingInsertKeepsRedBlackContract) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 1024; i > 0; --i) keys.push_back(i);
  R t = insert_all(a, R{}, keys);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_LE(t.height(), 20u);
}

TEST(Rbt, InvariantHoldsAfterEveryInsert) {
  alloc::Arena a;
  util::Xoshiro256 rng(99);
  R t;
  for (int i = 0; i < 512; ++i) {
    const std::int64_t k = static_cast<std::int64_t>(rng.below(4096));
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
    ASSERT_TRUE(t.check_invariants()) << "after insert #" << i;
  }
}

TEST(Rbt, DuplicateInsertReturnsSameRoot) {
  alloc::Arena a;
  R t = insert_all(a, R{}, {1, 2, 3});
  core::Builder<alloc::Arena> b(a);
  EXPECT_EQ(t.insert(b, 2, 0).root_ptr(), t.root_ptr());
  EXPECT_EQ(b.fresh_count(), 0u);
  b.rollback();
}

TEST(Rbt, EraseAbsentReturnsSameRoot) {
  alloc::Arena a;
  R t = insert_all(a, R{}, {1, 2, 3});
  core::Builder<alloc::Arena> b(a);
  EXPECT_EQ(t.erase(b, 9).root_ptr(), t.root_ptr());
  b.rollback();
}

TEST(Rbt, EraseLeafInternalAndRoot) {
  alloc::Arena a;
  R t = insert_all(a, R{}, {8, 4, 12, 2, 6, 10, 14, 1, 3});
  t = test::apply(a, [&](auto& b) { return t.erase(b, 3); });
  EXPECT_FALSE(t.contains(3));
  EXPECT_TRUE(t.check_invariants());
  t = test::apply(a, [&](auto& b) { return t.erase(b, 2); });
  EXPECT_FALSE(t.contains(2));
  EXPECT_TRUE(t.check_invariants());
  t = test::apply(a, [&](auto& b) { return t.erase(b, 4); });
  EXPECT_FALSE(t.contains(4));
  EXPECT_TRUE(t.check_invariants());
  t = test::apply(a, [&](auto& b) { return t.erase(b, 8); });
  EXPECT_FALSE(t.contains(8));
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), 5u);
}

TEST(Rbt, EraseEverythingInRandomOrder) {
  alloc::Arena a;
  const auto keys = iota_keys(256);
  R t = insert_all(a, R{}, keys);
  util::Xoshiro256 rng(5);
  std::vector<std::int64_t> order = keys;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (const auto k : order) {
    t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
    ASSERT_TRUE(t.check_invariants()) << "after erasing " << k;
  }
  EXPECT_TRUE(t.empty());
}

TEST(Rbt, EraseMinRepeatedlyExercisesAppendChains) {
  alloc::Arena a;
  R t = insert_all(a, R{}, iota_keys(128));
  for (std::int64_t k = 0; k < 128; ++k) {
    t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
    ASSERT_TRUE(t.check_invariants());
    ASSERT_EQ(t.size(), static_cast<std::size_t>(127 - k));
  }
}

TEST(Rbt, EraseRootRepeatedly) {
  alloc::Arena a;
  R t = insert_all(a, R{}, iota_keys(200));
  while (!t.empty()) {
    const std::int64_t root_key = t.root_node()->key;
    t = test::apply(a, [&](auto& b) { return t.erase(b, root_key); });
    ASSERT_TRUE(t.check_invariants());
  }
}

TEST(Rbt, RankAndKth) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 100; ++i) keys.push_back(i * 5);
  R t = insert_all(a, R{}, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(t.kth(i), nullptr);
    EXPECT_EQ(t.kth(i)->key, keys[i]);
    EXPECT_EQ(t.rank(keys[i]), i);
  }
  EXPECT_EQ(t.kth(keys.size()), nullptr);
  EXPECT_EQ(t.rank(-1), 0u);
  EXPECT_EQ(t.rank(10000), keys.size());
}

TEST(Rbt, FloorCeilingCountRange) {
  alloc::Arena a;
  R t = insert_all(a, R{}, {10, 20, 30, 40});
  EXPECT_EQ(t.floor_node(25)->key, 20);
  EXPECT_EQ(t.floor_node(20)->key, 20);
  EXPECT_EQ(t.floor_node(5), nullptr);
  EXPECT_EQ(t.ceiling_node(25)->key, 30);
  EXPECT_EQ(t.ceiling_node(30)->key, 30);
  EXPECT_EQ(t.ceiling_node(45), nullptr);
  EXPECT_EQ(t.count_range(10, 40), 3u);
  EXPECT_EQ(t.count_range(11, 40), 2u);
  EXPECT_EQ(t.count_range(40, 10), 0u);
}

TEST(Rbt, MinMaxItemsSorted) {
  alloc::Arena a;
  R t = insert_all(a, R{}, {5, 1, 9, 3});
  EXPECT_EQ(t.min_node()->key, 1);
  EXPECT_EQ(t.max_node()->key, 9);
  const auto items = t.items();
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
  EXPECT_EQ(items.size(), 4u);
}

TEST(Rbt, PersistenceOldVersionUnchanged) {
  alloc::Arena a;
  R v1 = insert_all(a, R{}, {1, 2, 3, 4, 5, 6, 7});
  core::Builder<alloc::Arena> b(a);
  R v2 = v1.erase(b, 4);
  b.seal();
  (void)b.commit();
  EXPECT_TRUE(v1.contains(4));
  EXPECT_FALSE(v2.contains(4));
  EXPECT_TRUE(v1.check_invariants());
  EXPECT_TRUE(v2.check_invariants());
}

TEST(Rbt, SharingAfterInsert) {
  alloc::Arena a;
  R v1 = insert_all(a, R{}, iota_keys(2048));
  core::Builder<alloc::Arena> b(a);
  R v2 = v1.insert(b, 99999, 0);
  b.seal();
  (void)b.commit();
  const std::size_t shared = R::shared_nodes(v1, v2);
  // The copied prefix is bounded by the path plus recoloring fan-out.
  EXPECT_GE(shared, v1.size() - 40);
}

TEST(Rbt, InsertOrAssign) {
  alloc::Arena a;
  R t = insert_all(a, R{}, {1, 2, 3});
  R t2 = test::apply(a, [&](auto& b) { return t.insert_or_assign(b, 2, 42); });
  EXPECT_EQ(*t2.find(2), 42);
  EXPECT_EQ(*t.find(2), 20);
  EXPECT_TRUE(t2.check_invariants());
  // Assigning to an absent key inserts it.
  R t3 = test::apply(a, [&](auto& b) { return t2.insert_or_assign(b, 7, 70); });
  EXPECT_EQ(*t3.find(7), 70);
  EXPECT_TRUE(t3.check_invariants());
}

TEST(Rbt, BlackHeightIsLogarithmic) {
  alloc::Arena a;
  R t = insert_all(a, R{}, iota_keys(4096));
  const double log2n = std::log2(4096.0 + 1.0);
  EXPECT_GE(t.black_height(), static_cast<std::size_t>(log2n / 2.0));
  EXPECT_LE(t.black_height(), static_cast<std::size_t>(log2n) + 1);
}

TEST(Rbt, RandomOpsAgainstOracle) {
  alloc::Arena a;
  R t;
  std::map<std::int64_t, std::int64_t> oracle;
  util::Xoshiro256 rng(23);
  for (int i = 0; i < 4000; ++i) {
    const std::int64_t k = rng.range(-60, 60);
    if (rng.chance(3, 5)) {
      t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
      oracle.emplace(k, k);
    } else {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
      oracle.erase(k);
    }
    ASSERT_EQ(t.size(), oracle.size());
    if (i % 250 == 0) { ASSERT_TRUE(t.check_invariants()); }
  }
  EXPECT_TRUE(t.check_invariants());
  const auto items = t.items();
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(items[i].first, k);
    ++i;
  }
}

TEST(Rbt, DestroyFreesEverything) {
  alloc::MallocAlloc a;
  R t;
  for (std::int64_t k = 0; k < 150; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  EXPECT_EQ(a.stats().live_blocks(), 150u);
  R::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Rbt, NoLeaksThroughInsertEraseCycles) {
  alloc::MallocAlloc a;
  R t;
  for (std::int64_t k = 0; k < 64; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (std::int64_t k = 64; k < 96; ++k) {
      t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
    }
    for (std::int64_t k = 64; k < 96; ++k) {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
    }
    ASSERT_TRUE(t.check_invariants());
  }
  // Only the 64 surviving keys' nodes remain live.
  EXPECT_EQ(a.stats().live_blocks(), 64u);
  R::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ----- from_sorted + apply_sorted_batch (shared oracle harness) -----

TEST(Rbt, FromSortedRoundTrip) { test::from_sorted_roundtrip<R>(); }

// The leveled coloring (bottommost midpoint level red, the rest black)
// must satisfy the full red/black contract at every size, including the
// awkward just-past-a-power-of-two ones; check_invariants audits BST
// order, black root, no red-red edge, and uniform black height.
TEST(Rbt, FromSortedColoringHoldsAcrossSizes) {
  alloc::Arena a;
  for (std::int64_t n = 0; n <= 300; ++n) {
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < n; ++k) items.emplace_back(k, k);
    R t = test::apply(a, [&](auto& b) {
      return R::from_sorted(b, items.begin(), items.end());
    });
    ASSERT_TRUE(t.check_invariants()) << "n = " << n;
    ASSERT_EQ(t.size(), static_cast<std::size_t>(n));
  }
}

TEST(RbtBatch, NoopBatchesShareRoot) {
  test::batch_oracle_noop_shares_root<R>();
}

TEST(RbtBatch, OutcomesAndContents) { test::batch_oracle_outcomes<R>(); }

TEST(RbtBatch, RandomBatchesMatchSequentialApplication) {
  test::batch_oracle_random<R>(8181, 40, test::BatchKeyPattern::kUniform);
  test::batch_oracle_random<R>(8182, 20, test::BatchKeyPattern::kClustered);
}

// Red/black audit after a reshaping batch on a big tree: the join spine
// descent and recolor cascade must leave uniform black height and no
// red-red edge, with the deterministic height bound intact.
TEST(RbtBatch, BigBatchKeepsRedBlackContract) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t k = 0; k < 4096; ++k) items.emplace_back(k * 2, k);
  R t = test::apply(
      a, [&](auto& b) { return R::from_sorted(b, items.begin(), items.end()); });
  std::vector<R::BatchOp> ops;
  for (std::int64_t k = 1000; k < 1400; k += 2) {
    ops.push_back(R::BatchOp{R::BatchOpKind::kInsert, k + 1, k});
  }
  for (std::int64_t k = 6000; k < 6800; k += 2) {
    ops.push_back(R::BatchOp{R::BatchOpKind::kErase, k, std::nullopt});
  }
  std::vector<R::BatchOutcome> out(ops.size());
  R t2 = test::apply(
      a, [&](auto& b) { return t.apply_sorted_batch(b, ops, out); });
  EXPECT_EQ(t2.size(), 4096u + 200 - 400);
  EXPECT_TRUE(t2.check_invariants());
  EXPECT_TRUE(t.check_invariants());  // old version untouched
  // height <= 2 log2(N+1), the red-black worst case.
  EXPECT_LE(t2.height(),
            2 * static_cast<std::size_t>(std::log2(t2.size() + 1)) + 2);
}

// PR 10 range port: subtree-pruned in-order walk vs a std::set oracle,
// with count_range cross-checks and bounded-scan prefix semantics.
TEST(Rbt, ForEachRangeAndScanMatchOracle) {
  test::range_oracle_random<R>(3101);
}

// Sorted read batch: one descent-sharing sweep must answer exactly like
// per-key find(), with consistent savings accounting.
TEST(Rbt, SortedReadBatchMatchesPerKeyFind) {
  test::read_batch_oracle_random<R>(3111, 30, test::BatchKeyPattern::kUniform);
  test::read_batch_oracle_random<R>(3112, 20,
                                    test::BatchKeyPattern::kClustered);
}

/// check_invariants() must reject a hand-built tree with a red node under
/// a red node. Every path still sees the same number of blacks and the
/// root is black, so the red-red edge is the only fault.
TEST(Rbt, CheckInvariantsRejectsARedNodeWithARedChild) {
  using N = R::Node;
  constexpr R::Color kRed = R::Color::kRed;
  constexpr R::Color kBlack = R::Color::kBlack;
  const N three(kRed, nullptr, 3, 30, nullptr);
  const N five(kRed, &three, 5, 50, nullptr);
  const N ten(kBlack, &five, 10, 100, nullptr);
  const N five_ok(kRed, nullptr, 5, 50, nullptr);
  const N fifteen(kRed, nullptr, 15, 150, nullptr);
  const N ten_ok(kBlack, &five_ok, 10, 100, &fifteen);
  for (const N* n : {&three, &five, &ten, &five_ok, &fifteen, &ten_ok}) {
    n->pc_state_ = core::NodeState::kPublished;
  }
  EXPECT_TRUE(R::from_root(&ten_ok).check_invariants());
  EXPECT_FALSE(R::from_root(&ten).check_invariants());
}

}  // namespace
}  // namespace pathcopy
