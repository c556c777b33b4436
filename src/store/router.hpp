// Routers: pluggable keyspace-partitioning policies for the store layer.
//
// A router maps (key, shard_count) -> shard index. Two policies cover the
// two regimes the sharded bench sweeps:
//
//   * HashRouter  — splitmix64-finalized hash, modulo shards. Spreads any
//     key distribution (including contiguous and hot-range keys) evenly,
//     at the price of destroying key locality: a client batch of nearby
//     keys scatters across shards, so per-shard sub-batches share little
//     spine. Order is not preserved across shard indices, so ordered
//     cross-shard iteration needs a k-way merge.
//   * RangeRouter — explicit sorted split points; shard i owns the
//     half-open interval [bounds[i-1], bounds[i]). Preserves both order
//     (shard index is monotone in the key, so ordered iteration is plain
//     concatenation) and locality (a clustered batch lands on one shard's
//     sorted-sweep install path), at the price of skew under non-uniform
//     key distributions. A RangeRouter is static: the Rebalancer plans
//     and migrates tablet tables only (store/tablet_router.hpp), where a
//     contiguous split is the table with one tablet per shard.
//
// RouterFor is the contract ShardedMap checks: routing, a shard-count
// compatibility probe (range routers are built for one specific count),
// and the kOrderPreserving flag that picks the iteration strategy.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pathcopy::store {

/// The routing contract. kOrderPreserving == true promises monotonicity:
/// k1 < k2 implies shard(k1) <= shard(k2).
template <class R, class K>
concept RouterFor = requires(const R r, const K& key, std::size_t shards) {
  { r(key, shards) } -> std::convertible_to<std::size_t>;
  { r.compatible(shards) } -> std::convertible_to<bool>;
  { R::kOrderPreserving } -> std::convertible_to<bool>;
};

template <class K, class Hash = std::hash<K>>
struct HashRouter {
  static constexpr bool kOrderPreserving = false;

  /// std::hash of an integer is the identity on common implementations;
  /// the mix64 finalizer keeps contiguous keys from striping predictably.
  std::size_t operator()(const K& key, std::size_t shards) const {
    return static_cast<std::size_t>(
        util::mix64(static_cast<std::uint64_t>(Hash{}(key))) % shards);
  }

  bool compatible(std::size_t shards) const { return shards >= 1; }
};

template <class K, class Cmp = std::less<K>>
class RangeRouter {
 public:
  static constexpr bool kOrderPreserving = true;

  /// No split points: routes everything to shard 0 (single-shard maps).
  RangeRouter() = default;

  /// bounds must be strictly increasing; a router with B bounds serves
  /// exactly B + 1 shards.
  explicit RangeRouter(std::vector<K> bounds) : bounds_(std::move(bounds)) {
    Cmp cmp;
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
      PC_ASSERT(cmp(bounds_[i - 1], bounds_[i]),
                "RangeRouter bounds must be strictly increasing");
    }
  }

  /// Equal-width split of [lo, hi) into `shards` intervals. The interval
  /// arithmetic runs in unsigned 64-bit (two's-complement wrap makes
  /// hi - lo the true width for any signed lo < hi), so full-range key
  /// spaces split without signed overflow.
  static RangeRouter uniform(K lo, K hi, std::size_t shards)
    requires std::integral<K>
  {
    PC_ASSERT(shards >= 1 && lo < hi, "uniform needs shards >= 1 and lo < hi");
    const std::uint64_t width =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    PC_ASSERT(width >= shards, "uniform needs at least one key per shard");
    std::vector<K> bounds;
    bounds.reserve(shards - 1);
    for (std::size_t i = 1; i < shards; ++i) {
      // floor(width * i / shards) without the 128-bit product: the
      // remainder term re-adds what the truncated quotient dropped.
      const std::uint64_t off =
          width / shards * i + width % shards * i / shards;
      bounds.push_back(
          static_cast<K>(static_cast<std::uint64_t>(lo) + off));
    }
    return RangeRouter{std::move(bounds)};
  }

  std::size_t operator()(const K& key, std::size_t shards) const {
    PC_DASSERT(compatible(shards), "router built for a different shard count");
    (void)shards;
    // First bound strictly greater than key = index of the owning shard;
    // keys below every bound go to shard 0, keys at or above the last
    // bound to the last shard.
    std::size_t lo = 0, hi = bounds_.size();
    Cmp cmp;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cmp(key, bounds_[mid])) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  bool compatible(std::size_t shards) const {
    return bounds_.size() + 1 == shards;
  }

  const std::vector<K>& bounds() const noexcept { return bounds_; }

 private:
  std::vector<K> bounds_;
};

}  // namespace pathcopy::store
