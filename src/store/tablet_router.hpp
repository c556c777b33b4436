// TabletRouter: a sorted tablet table — the keyspace as T half-open
// intervals, each *assigned* to a shard, with any number of tablets per
// shard.
//
// RangeRouter ties topology to placement: shard i owns exactly one
// contiguous interval, so rebalancing a skewed load must re-draw every
// boundary and physically re-pack the cold mass (PR 5 moved ~90% of
// resident keys to fix a Zipf hot head). A tablet table decouples the
// two, Bigtable-style: the *boundaries* say where intervals start, the
// *assignment* says who serves them. Balancing then becomes
//
//   * split   — refine a hot tablet's boundaries. Owners are unchanged,
//               so the routing function is pointwise identical: the flip
//               migrates ZERO keys (the diff below is empty).
//   * reassign— hand one tablet to another shard. Only that tablet's
//               resident keys move; every other tablet — in particular
//               the whole cold mass — stays put.
//
// The router satisfies RouterFor and slots into ShardedMap / RouterEpoch
// / ConsistentCut unchanged. kOrderPreserving is false: two tablets of
// one shard may straddle another shard's tablet, so shard index is not
// monotone in the key and ordered iteration uses the k-way merge path
// (each shard's *own* slice is still sorted — a tablet reassignment
// still travels as one sorted ingest unit).
//
// diff() is the migration planner's primitive: walking two tables'
// merged boundaries yields the minimal set of moving segments (maximal
// key intervals whose owner changed, with source and destination), in
// ascending key order — which is exactly the order the per-destination
// migration watermarks need.
#pragma once

#include <concepts>
#include <cstddef>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "store/router.hpp"
#include "util/assert.hpp"

namespace pathcopy::store {

/// One maximal interval whose owner changes between two tablet tables.
/// nullopt bounds mean "unbounded on that side" (the first tablet has no
/// lower bound, the last no upper bound). Keys in [lo, hi) move from
/// shard `src` to shard `dst`.
template <class K>
struct TabletSegment {
  std::optional<K> lo;
  std::optional<K> hi;
  std::size_t src = 0;
  std::size_t dst = 0;
};

template <class K, class Cmp = std::less<K>>
class TabletRouter {
 public:
  static constexpr bool kOrderPreserving = false;

  /// One unbounded tablet on shard 0 (single-shard maps).
  TabletRouter() : owners_(1, 0) {}

  /// T-1 strictly increasing boundaries + T owners: tablet t covers
  /// [bounds[t-1], bounds[t]) and routes to owners[t].
  TabletRouter(std::vector<K> bounds, std::vector<std::size_t> owners)
      : bounds_(std::move(bounds)), owners_(std::move(owners)) {
    PC_ASSERT(owners_.size() == bounds_.size() + 1,
              "a tablet table with B bounds has exactly B + 1 tablets");
    Cmp cmp;
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
      PC_ASSERT(cmp(bounds_[i - 1], bounds_[i]),
                "tablet bounds must be strictly increasing");
    }
  }

  /// Equal-width tablets over [lo, hi), tablet i owned by shard i —
  /// RangeRouter::uniform's bounds, so it routes identically; the seed
  /// topology a rebalancer refines.
  static TabletRouter uniform(K lo, K hi, std::size_t shards)
    requires std::integral<K>
  {
    std::vector<std::size_t> owners(shards);
    std::iota(owners.begin(), owners.end(), std::size_t{0});
    return TabletRouter{RangeRouter<K, Cmp>::uniform(lo, hi, shards).bounds(),
                        std::move(owners)};
  }

  std::size_t operator()(const K& key, std::size_t shards) const {
    PC_DASSERT(compatible(shards), "router references an unknown shard");
    (void)shards;
    return owners_[tablet_of(key)];
  }

  /// Compatible with any shard count that covers every assignment.
  bool compatible(std::size_t shards) const {
    for (const std::size_t o : owners_) {
      if (o >= shards) return false;
    }
    return true;
  }

  /// Index of the tablet containing `key` (first bound strictly greater
  /// than key, same search as RangeRouter).
  std::size_t tablet_of(const K& key) const {
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

  std::size_t tablet_count() const noexcept { return owners_.size(); }
  std::size_t owner(std::size_t t) const { return owners_[t]; }
  const std::vector<K>& bounds() const noexcept { return bounds_; }
  const std::vector<std::size_t>& owners() const noexcept { return owners_; }

  /// Tablet t's lower/upper boundary; nullptr = unbounded on that side.
  const K* tablet_lo(std::size_t t) const {
    return t == 0 ? nullptr : &bounds_[t - 1];
  }
  const K* tablet_hi(std::size_t t) const {
    return t + 1 == owners_.size() ? nullptr : &bounds_[t];
  }

  /// Tablet counts per shard (the ShardStatsBoard's tablets/shard row).
  std::vector<std::size_t> tablets_per_shard(std::size_t shards) const {
    std::vector<std::size_t> counts(shards, 0);
    for (const std::size_t o : owners_) {
      PC_ASSERT(o < shards, "tablet assigned past the shard count");
      ++counts[o];
    }
    return counts;
  }

  /// Copy with tablet t reassigned to `shard` — the single-tablet move
  /// the continuous rebalancer flips one at a time.
  TabletRouter with_owner(std::size_t t, std::size_t shard) const {
    PC_ASSERT(t < owners_.size(), "with_owner on an unknown tablet");
    TabletRouter next = *this;
    next.owners_[t] = shard;
    return next;
  }

  /// Copy with tablet t split at `cuts` (strictly increasing, strictly
  /// inside t's interval). Every piece keeps t's owner, so the result
  /// routes pointwise identically to *this: a split-only flip migrates
  /// zero keys.
  TabletRouter with_split(std::size_t t, std::span<const K> cuts) const {
    PC_ASSERT(t < owners_.size(), "with_split on an unknown tablet");
    PC_ASSERT(!cuts.empty(), "with_split needs at least one cut");
    Cmp cmp;
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      PC_ASSERT(cmp(cuts[i - 1], cuts[i]),
                "split cuts must be strictly increasing");
    }
    if (const K* lo = tablet_lo(t)) {
      PC_ASSERT(cmp(*lo, cuts.front()), "split cut at or below the tablet");
    }
    if (const K* hi = tablet_hi(t)) {
      PC_ASSERT(cmp(cuts.back(), *hi), "split cut at or above the tablet");
    }
    TabletRouter next;
    next.bounds_.clear();
    next.owners_.clear();
    next.bounds_.reserve(bounds_.size() + cuts.size());
    next.owners_.reserve(owners_.size() + cuts.size());
    for (std::size_t i = 0; i < owners_.size(); ++i) {
      next.owners_.push_back(owners_[i]);
      if (i == t) {
        for (const K& c : cuts) {
          next.bounds_.push_back(c);
          next.owners_.push_back(owners_[t]);
        }
      }
      if (i + 1 < owners_.size()) next.bounds_.push_back(bounds_[i]);
    }
    return next;
  }

  /// Copy with adjacent same-owner tablets merged — routes pointwise
  /// identically; keeps the table from growing without bound as the
  /// hotspot moves and old refinements go cold.
  TabletRouter coalesced() const {
    TabletRouter next;
    next.bounds_.clear();
    next.owners_.clear();
    next.owners_.push_back(owners_[0]);
    for (std::size_t i = 1; i < owners_.size(); ++i) {
      if (owners_[i] == next.owners_.back()) continue;
      next.bounds_.push_back(bounds_[i - 1]);
      next.owners_.push_back(owners_[i]);
    }
    return next;
  }

  bool operator==(const TabletRouter& o) const {
    return bounds_ == o.bounds_ && owners_ == o.owners_;
  }

  /// The minimal moving set between two tables: maximal key intervals
  /// whose owner differs, in ascending key order. Walks the merged
  /// boundary list once — each elementary interval (between two adjacent
  /// boundaries of either table) has one owner per table; consecutive
  /// elementary intervals moving src→dst coalesce into one segment.
  /// Empty iff the tables route pointwise identically (in particular for
  /// any pure split/coalesce).
  static std::vector<TabletSegment<K>> diff(const TabletRouter& from,
                                            const TabletRouter& to) {
    std::vector<TabletSegment<K>> segs;
    Cmp cmp;
    const std::vector<K>& a = from.bounds_;
    const std::vector<K>& b = to.bounds_;
    std::size_t i = 0, j = 0;  // next unconsumed boundary in a / b
    std::optional<K> cur_lo;   // lower edge of the current elementary interval
    bool prev_moved = false;   // did the previous elementary interval move?
    const auto emit = [&](std::optional<K> hi) {
      const std::size_t src = from.owners_[i];
      const std::size_t dst = to.owners_[j];
      if (src != dst) {
        if (prev_moved && segs.back().src == src && segs.back().dst == dst) {
          segs.back().hi = hi;  // adjacent, same move: extend
        } else {
          segs.push_back(TabletSegment<K>{cur_lo, hi, src, dst});
        }
        prev_moved = true;
      } else {
        prev_moved = false;
      }
      cur_lo = hi;
    };
    while (i < a.size() || j < b.size()) {
      const bool take_a =
          i < a.size() && (j >= b.size() || !cmp(b[j], a[i]));
      const bool take_b =
          j < b.size() && (i >= a.size() || !cmp(a[i], b[j]));
      emit(take_a ? a[i] : b[j]);
      if (take_a) ++i;
      if (take_b) ++j;
    }
    emit(std::nullopt);
    return segs;
  }

 private:
  std::vector<K> bounds_;
  std::vector<std::size_t> owners_;
};

}  // namespace pathcopy::store
