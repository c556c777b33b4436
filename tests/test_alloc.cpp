#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <unordered_set>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "reclaim/retired.hpp"

namespace pathcopy {
namespace {

TEST(MallocAlloc, RoundTripAndCounters) {
  alloc::MallocAlloc a;
  void* p = a.allocate(64, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 64);
  EXPECT_EQ(a.stats().allocs.load(), 1u);
  EXPECT_EQ(a.stats().live_blocks(), 1u);
  a.deallocate(p, 64, 8);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
  EXPECT_EQ(a.stats().bytes_allocated.load(), 64u);
  EXPECT_EQ(a.stats().bytes_freed.load(), 64u);
}

TEST(MallocAlloc, RetireBackendIsSelf) {
  alloc::MallocAlloc a;
  EXPECT_EQ(a.retire_backend(), &a);
}

TEST(MallocAlloc, FreeBytesMatchesDeallocate) {
  alloc::MallocAlloc a;
  void* p = a.allocate(32, 8);
  a.free_bytes(p, 32, 8);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(MallocAlloc, OverAlignedAllocation) {
  alloc::MallocAlloc a;
  void* p = a.allocate(128, 64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  a.deallocate(p, 128, 64);
}

TEST(Arena, BumpAllocationsAreDistinct) {
  alloc::Arena arena;
  std::unordered_set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = arena.allocate(48, 8);
    EXPECT_TRUE(seen.insert(p).second);
  }
}

TEST(Arena, RecycleReusesBlock) {
  alloc::Arena arena;
  void* p = arena.allocate(48, 8);
  arena.deallocate(p, 48, 8);
  void* q = arena.allocate(48, 8);
  EXPECT_EQ(p, q);  // same size class comes back from the recycle list
}

TEST(Arena, DifferentSizeClassesDoNotMix) {
  alloc::Arena arena;
  void* p = arena.allocate(16, 8);
  arena.deallocate(p, 16, 8);
  void* q = arena.allocate(480, 8);
  EXPECT_NE(p, q);
}

TEST(Arena, GrowsBeyondOneBlock) {
  alloc::Arena arena;
  // Each allocation is 1 KiB; 2048 of them exceed one 1 MiB slab.
  for (int i = 0; i < 2048; ++i) {
    ASSERT_NE(arena.allocate(1024, 8), nullptr);
  }
  EXPECT_GE(arena.block_count(), 2u);
}

TEST(Arena, HugeAllocationGetsOwnBlock) {
  alloc::Arena arena;
  void* p = arena.allocate(4 << 20, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 4 << 20);
}

TEST(Arena, ResetDropsBlocks) {
  alloc::Arena arena;
  arena.allocate(1024, 8);
  EXPECT_GE(arena.block_count(), 1u);
  arena.reset();
  EXPECT_EQ(arena.block_count(), 0u);
  // Usable again after reset.
  EXPECT_NE(arena.allocate(64, 8), nullptr);
}

TEST(Arena, RetireBackendFreeIsNoOpButCounts) {
  alloc::Arena arena;
  void* p = arena.allocate(64, 8);
  arena.retire_backend()->free_bytes(p, 64, 8);
  EXPECT_EQ(arena.retire_backend()->stats().frees.load(), 1u);
  // Memory still readable: arena memory lives until reset.
  std::memset(p, 0x5a, 64);
}

TEST(Pool, ClassOfRoundsUp) {
  EXPECT_EQ(alloc::PoolBackend::class_of(1), 0u);
  EXPECT_EQ(alloc::PoolBackend::class_of(16), 0u);
  EXPECT_EQ(alloc::PoolBackend::class_of(17), 1u);
  EXPECT_EQ(alloc::PoolBackend::class_of(512), 31u);
  EXPECT_EQ(alloc::PoolBackend::class_bytes(0), 16u);
  EXPECT_EQ(alloc::PoolBackend::class_bytes(31), 512u);
}

TEST(Pool, AllocateFreeReuses) {
  alloc::PoolBackend pool;
  alloc::PoolView view(pool);
  void* p = view.allocate(48, 8);
  view.deallocate(p, 48, 8);
  void* q = view.allocate(48, 8);
  EXPECT_EQ(p, q);
}

TEST(Pool, OversizeFallsBackToNew) {
  alloc::PoolBackend pool;
  alloc::PoolView view(pool);
  void* p = view.allocate(4096, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 4096);
  view.deallocate(p, 4096, 8);
}

TEST(Pool, PopBatchCarvesWhenEmpty) {
  alloc::PoolBackend pool;
  void* items[32];
  const std::size_t got = pool.pop_batch(2, items, 32);
  EXPECT_EQ(got, 32u);
  std::unordered_set<void*> seen(items, items + 32);
  EXPECT_EQ(seen.size(), 32u);
  pool.push_batch(2, items, 32);
  // Popping again returns the pushed blocks.
  void* again[32];
  EXPECT_EQ(pool.pop_batch(2, again, 32), 32u);
}

TEST(Pool, LockCounterAdvances) {
  alloc::PoolBackend pool;
  alloc::PoolView view(pool);
  const auto before = pool.lock_acquisitions();
  void* p = view.allocate(32, 8);
  view.deallocate(p, 32, 8);
  EXPECT_GE(pool.lock_acquisitions(), before + 2);
}

TEST(Pool, ConcurrentHammering) {
  alloc::PoolBackend pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool] {
      alloc::PoolView view(pool);
      std::vector<void*> held;
      held.reserve(64);
      for (int i = 0; i < kIters; ++i) {
        held.push_back(view.allocate(48, 8));
        if (held.size() == 64) {
          for (void* p : held) view.deallocate(p, 48, 8);
          held.clear();
        }
      }
      for (void* p : held) view.deallocate(p, 48, 8);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool.stats().live_blocks(), 0u);
}

TEST(ThreadCache, AllocWithinMagazineAvoidsBackendLocks) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  void* p = cache.allocate(48, 8);  // first allocation pulls one batch
  const auto locks_after_refill = pool.lock_acquisitions();
  cache.deallocate(p, 48, 8);
  for (int i = 0; i < 32; ++i) {
    void* q = cache.allocate(48, 8);
    cache.deallocate(q, 48, 8);
  }
  EXPECT_EQ(pool.lock_acquisitions(), locks_after_refill);
}

TEST(ThreadCache, FullStackSpillsOldestBatch) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  constexpr std::size_t cls = alloc::PoolBackend::class_of(48);
  constexpr std::size_t cap = alloc::ThreadCache::capacity(cls);
  constexpr std::size_t batch = alloc::ThreadCache::batch(cls);
  std::vector<void*> blocks;
  for (std::size_t i = 0; i <= cap; ++i) {
    blocks.push_back(cache.allocate(48, 8));
  }
  cache.flush();  // start the frees from an empty stack
  const auto locks_before = pool.lock_acquisitions();
  for (std::size_t i = 0; i < cap; ++i) cache.deallocate(blocks[i], 48, 8);
  // capacity frees fill the stack to the brim without a backend trip...
  EXPECT_EQ(pool.lock_acquisitions(), locks_before);
  EXPECT_EQ(cache.cached(cls), cap);
  // ...and one more spills exactly one batch, the oldest frees.
  cache.deallocate(blocks[cap], 48, 8);
  EXPECT_EQ(pool.lock_acquisitions(), locks_before + 1);
  EXPECT_EQ(cache.cached(cls), cap + 1 - batch);
  std::vector<void*> spilled(batch);
  ASSERT_EQ(pool.pop_batch(cls, spilled.data(), batch), batch);
  EXPECT_EQ(std::unordered_set<void*>(spilled.begin(), spilled.end()),
            std::unordered_set<void*>(blocks.begin(), blocks.begin() + batch));
  pool.push_batch(cls, spilled.data(), batch);
  // The newest free is still on top.
  EXPECT_EQ(cache.allocate(48, 8), blocks[cap]);
  cache.deallocate(blocks[cap], 48, 8);
  // Everything is accounted for between cache and backend.
  cache.flush();
  EXPECT_EQ(cache.stats().live_blocks(), 0u);
  EXPECT_EQ(pool.free_blocks(cls), pool.carved_blocks(cls));
}

TEST(ThreadCache, OversizeBypassesMagazines) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  void* p = cache.allocate(2048, 8);
  ASSERT_NE(p, nullptr);
  cache.deallocate(p, 2048, 8);
}

TEST(ThreadCache, TwoCachesShareBackend) {
  alloc::PoolBackend pool;
  void* p = nullptr;
  {
    alloc::ThreadCache c1(pool);
    p = c1.allocate(48, 8);
    c1.deallocate(p, 48, 8);
  }  // c1 flush returns the block to the pool
  alloc::ThreadCache c2(pool);
  // c2 can obtain blocks previously cached by c1 (through the backend).
  std::unordered_set<void*> seen;
  bool found = false;
  for (int i = 0; i < 200 && !found; ++i) {
    found = (c2.allocate(48, 8) == p);
  }
  EXPECT_TRUE(found);
}

TEST(ThreadCache, ConcurrentCaches) {
  alloc::PoolBackend pool;
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool] {
      alloc::ThreadCache cache(pool);
      std::vector<void*> held;
      for (int i = 0; i < 20000; ++i) {
        held.push_back(cache.allocate(64, 8));
        if (held.size() == 100) {
          for (void* p : held) cache.deallocate(p, 64, 8);
          held.clear();
        }
      }
      for (void* p : held) cache.deallocate(p, 64, 8);
    });
  }
  for (auto& w : workers) w.join();
}

TEST(Pool, FreeBatchIsOneLockedTrip) {
  alloc::PoolBackend pool;
  void* items[16];
  ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), items, 16), 16u);
  const auto locks_before = pool.lock_acquisitions();
  pool.free_batch(items, 16, 48, 8);
  EXPECT_EQ(pool.lock_acquisitions(), locks_before + 1);  // one trip for 16
  // The blocks are reusable: pop them back out.
  void* again[16];
  EXPECT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), again, 16), 16u);
}

TEST(Pool, FreeBatchOversizeFallsBackPerBlock) {
  alloc::PoolBackend pool;
  alloc::PoolView view(pool);
  void* items[3];
  for (void*& p : items) p = view.allocate(4096, 8);
  pool.free_batch(items, 3, 4096, 8);
  EXPECT_EQ(pool.stats().live_blocks(), 0u);
}

TEST(ThreadCache, AcceptRetiredFillsMagazineWithoutBackendTrips) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  // Prime the size class so the magazine exists and the refill trip is
  // already paid for.
  void* warm = cache.allocate(48, 8);
  cache.deallocate(warm, 48, 8);
  // Stage "retired" blocks straight from the backend (as a bundle free
  // would after running destructors).
  void* retired[8];
  ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), retired, 8), 8u);
  const auto locks_before = pool.lock_acquisitions();
  EXPECT_TRUE(cache.accept_retired(&pool, retired, 8, 48, 8));
  EXPECT_EQ(pool.lock_acquisitions(), locks_before);  // zero backend trips
  EXPECT_EQ(cache.stats().recycled.load(), 8u);
  // Retire-then-alloc reuse: the next allocations come from the absorbed
  // blocks (LIFO magazine order), still without touching the backend.
  std::unordered_set<void*> absorbed(retired, retired + 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(absorbed.count(cache.allocate(48, 8)) == 1);
  }
  EXPECT_EQ(pool.lock_acquisitions(), locks_before);
}

TEST(ThreadCache, AcceptRetiredRefusesForeignBackendAndOversize) {
  alloc::PoolBackend pool;
  alloc::PoolBackend other;
  alloc::ThreadCache cache(pool);
  void* blocks[2];
  ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), blocks, 2), 2u);
  // Wrong backend: the blocks belong to `pool`, the sink must refuse so
  // they flow through `other`'s own free path... and vice versa here.
  EXPECT_FALSE(cache.accept_retired(&other, blocks, 2, 48, 8));
  // Oversize class: magazines only hold pooled classes.
  EXPECT_FALSE(cache.accept_retired(&pool, blocks, 2, 4096, 8));
  EXPECT_EQ(cache.stats().recycled.load(), 0u);
  pool.free_batch(blocks, 2, 48, 8);
}

TEST(ThreadCache, AcceptRetiredPastCapacitySpillsOverflowBatched) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  constexpr std::size_t cls = alloc::PoolBackend::class_of(64);
  constexpr std::size_t cap = alloc::ThreadCache::capacity(cls);
  constexpr std::size_t batch = alloc::ThreadCache::batch(cls);
  // Prime the class: one refill batch sits on the stack.
  cache.deallocate(cache.allocate(64, 8), 64, 8);
  ASSERT_EQ(cache.cached(cls), batch);
  // Absorb 2 * capacity retired blocks at once: the overflow goes back
  // to the backend in two batched trips (the stack's old blocks, then the
  // oldest of the group), never per block, and the stack ends full with
  // the newest blocks of the group.
  constexpr std::size_t kN = 2 * cap;
  std::vector<void*> retired(kN);
  ASSERT_EQ(pool.pop_batch(cls, retired.data(), kN), kN);
  const auto locks_before = pool.lock_acquisitions();
  EXPECT_TRUE(cache.accept_retired(&pool, retired.data(), kN, 64, 8));
  EXPECT_EQ(pool.lock_acquisitions() - locks_before, 2u);
  EXPECT_EQ(cache.cached(cls), cap);
  EXPECT_EQ(cache.allocate(64, 8), retired.back());
  cache.deallocate(retired.back(), 64, 8);
  cache.flush();
  EXPECT_EQ(pool.free_blocks(cls), pool.carved_blocks(cls));
}

namespace {
struct RetireProbe {
  static int destroyed;
  std::uint64_t payload = 0;
  ~RetireProbe() { ++destroyed; }
};
int RetireProbe::destroyed = 0;
}  // namespace

TEST(RetireSink, FreeAllRoutesBundleIntoSinkMagazines) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  RetireProbe::destroyed = 0;
  // Build a bundle of same-class retired nodes, as a winning writer's
  // commit() would.
  std::vector<reclaim::Retired> bundle;
  for (int i = 0; i < 12; ++i) {
    void* raw = pool.allocate(sizeof(RetireProbe), alignof(RetireProbe));
    bundle.push_back(reclaim::make_retired(new (raw) RetireProbe, &pool));
  }
  const reclaim::RetireSink sink = cache.retire_sink();
  const auto locks_before = pool.lock_acquisitions();
  reclaim::free_all(bundle, &sink);
  EXPECT_TRUE(bundle.empty());
  EXPECT_EQ(RetireProbe::destroyed, 12);        // destructors all ran
  EXPECT_EQ(pool.lock_acquisitions(), locks_before);  // absorbed, no trips
  EXPECT_EQ(cache.stats().recycled.load(), 12u);
  // The recycled bytes are immediately allocatable from this thread.
  void* p = cache.allocate(sizeof(RetireProbe), alignof(RetireProbe));
  EXPECT_NE(p, nullptr);
  cache.deallocate(p, sizeof(RetireProbe), alignof(RetireProbe));
}

TEST(RetireSink, FreeAllWithoutSinkUsesOneBackendTripPerClass) {
  alloc::PoolBackend pool;
  RetireProbe::destroyed = 0;
  std::vector<reclaim::Retired> bundle;
  for (int i = 0; i < 10; ++i) {
    void* raw = pool.allocate(sizeof(RetireProbe), alignof(RetireProbe));
    bundle.push_back(reclaim::make_retired(new (raw) RetireProbe, &pool));
  }
  const auto locks_before = pool.lock_acquisitions();
  reclaim::free_all(bundle, nullptr);
  EXPECT_EQ(RetireProbe::destroyed, 10);
  // One size class -> exactly one push_batch trip for the whole bundle.
  EXPECT_EQ(pool.lock_acquisitions(), locks_before + 1);
  EXPECT_EQ(pool.stats().live_blocks(), 0u);
}

TEST(RetireSink, UnbatchedFallbackStillFreesPerNode) {
  alloc::PoolBackend pool;
  RetireProbe::destroyed = 0;
  std::vector<reclaim::Retired> bundle;
  for (int i = 0; i < 4; ++i) {
    void* raw = pool.allocate(sizeof(RetireProbe), alignof(RetireProbe));
    bundle.push_back(reclaim::make_retired(new (raw) RetireProbe, &pool));
  }
  reclaim::set_batched_free(false);  // the pre-batching A/B baseline
  const auto locks_before = pool.lock_acquisitions();
  reclaim::free_all(bundle, nullptr);
  reclaim::set_batched_free(true);
  EXPECT_EQ(RetireProbe::destroyed, 4);
  EXPECT_EQ(pool.lock_acquisitions(), locks_before + 4);  // per-node locks
  EXPECT_EQ(pool.stats().live_blocks(), 0u);
}

TEST(RetireSink, CrossThreadRetireThenAllocReuse) {
  // Thread A's nodes retire while thread B's cache is the sink (the
  // shard-executor shape: whoever's scan ripens the bundle absorbs it);
  // B's subsequent allocations reuse the bytes without backend trips.
  alloc::PoolBackend pool;
  std::vector<reclaim::Retired> bundle;
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      void* raw = pool.allocate(sizeof(RetireProbe), alignof(RetireProbe));
      bundle.push_back(reclaim::make_retired(new (raw) RetireProbe, &pool));
    }
  });
  producer.join();
  std::thread consumer([&] {
    alloc::ThreadCache cache(pool);
    const reclaim::RetireSink sink = cache.retire_sink();
    reclaim::free_all(bundle, &sink);
    EXPECT_EQ(cache.stats().recycled.load(), 6u);
    void* p = cache.allocate(sizeof(RetireProbe), alignof(RetireProbe));
    EXPECT_NE(p, nullptr);
    cache.deallocate(p, sizeof(RetireProbe), alignof(RetireProbe));
  });
  consumer.join();
}

// Freed blocks are never read or written by the free paths: every trip
// copies pointers. An intrusive free list would overwrite each block's
// first word with its `next` link, so this canary catches a regression.
TEST(Pool, FreePathsLeaveFreedBlocksUntouched) {
  constexpr std::size_t kBytes = 64;
  constexpr std::size_t cls = alloc::PoolBackend::class_of(kBytes);
  constexpr unsigned char kCanary = 0xc5;
  constexpr std::size_t kN = 256;
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  auto fill = [&](const std::vector<void*>& v) {
    for (void* p : v) std::memset(p, kCanary, kBytes);
  };
  auto intact = [&](const std::vector<void*>& v) {
    for (void* p : v) {
      const auto* b = static_cast<const unsigned char*>(p);
      for (std::size_t i = 0; i < kBytes; ++i) {
        if (b[i] != kCanary) return false;
      }
    }
    return true;
  };
  auto same_blocks = [](const std::vector<void*>& a, const std::vector<void*>& b) {
    return std::unordered_set<void*>(a.begin(), a.end()) ==
           std::unordered_set<void*>(b.begin(), b.end());
  };
  std::vector<void*> blocks(kN);
  ASSERT_EQ(pool.pop_batch(cls, blocks.data(), kN), kN);
  fill(blocks);
  std::vector<void*> back(kN);

  pool.push_batch(cls, blocks.data(), kN);
  ASSERT_EQ(pool.pop_batch(cls, back.data(), kN), kN);
  EXPECT_TRUE(same_blocks(back, blocks));
  EXPECT_TRUE(intact(back)) << "push_batch/pop_batch";

  pool.free_batch(blocks.data(), kN, kBytes, 8);
  ASSERT_EQ(pool.pop_batch(cls, back.data(), kN), kN);
  EXPECT_TRUE(same_blocks(back, blocks));
  EXPECT_TRUE(intact(back)) << "free_batch";

  alloc::PoolView view(pool);
  view.deallocate(blocks[0], kBytes, 8);
  EXPECT_EQ(view.allocate(kBytes, 8), blocks[0]);
  EXPECT_TRUE(intact({blocks[0]})) << "deallocate/allocate";

  // Into a thread cache and back out of it.
  EXPECT_TRUE(cache.accept_retired(&pool, blocks.data(), kN, kBytes, 8));
  for (void*& p : back) p = cache.allocate(kBytes, 8);
  EXPECT_TRUE(same_blocks(back, blocks));
  EXPECT_TRUE(intact(back)) << "accept_retired";

  // Past the cache's capacity: the spill goes through push_batch.
  const std::size_t big = alloc::ThreadCache::capacity(cls) + kN;
  std::vector<void*> many(big);
  ASSERT_EQ(pool.pop_batch(cls, many.data(), big), big);
  fill(many);
  EXPECT_TRUE(cache.accept_retired(&pool, many.data(), big, kBytes, 8));
  cache.flush();
  std::vector<void*> all(pool.free_blocks(cls));
  ASSERT_EQ(pool.pop_batch(cls, all.data(), all.size()), all.size());
  std::unordered_set<void*> canaried(many.begin(), many.end());
  std::vector<void*> returned;
  for (void* p : all) {
    if (canaried.count(p) == 1) returned.push_back(p);
  }
  EXPECT_EQ(returned.size(), big);
  EXPECT_TRUE(intact(returned)) << "spill + flush";
  pool.push_batch(cls, all.data(), all.size());
  pool.push_batch(cls, blocks.data(), kN);
}

namespace {
/// A 48-byte node, the paper workload's treap-node size class.
struct PathNode {
  std::uint64_t words[6] = {};
};
}  // namespace

// The steady state of path copying under EBR: a thread's updates publish
// paths, the reclaimer later frees them a bucket at a time, and the next
// updates allocate the bytes back. One ripe bucket of 128 retires x 32
// nodes must be absorbed and reused locally, with no pool trip, both when
// it lands as one group (EpochReclaimer frees a bucket with one free_all)
// and bundle by bundle between allocations (the per-bundle reclaimers).
TEST(ThreadCache, AbsorbsARipeEpochBucketWithoutPoolTrips) {
  constexpr int kBundles = 128;
  constexpr int kPath = 32;
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  const reclaim::RetireSink sink = cache.retire_sink();
  auto publish = [&] {
    void* raw = cache.allocate(sizeof(PathNode), alignof(PathNode));
    return reclaim::make_retired(new (raw) PathNode, &pool);
  };
  std::vector<reclaim::Retired> bucket;
  for (int i = 0; i < kBundles * kPath; ++i) bucket.push_back(publish());
  std::vector<std::vector<reclaim::Retired>> bundles(kBundles);
  for (auto& b : bundles) b.reserve(kPath);
  // One warm-up round sizes free_all's reused buffer.
  reclaim::free_all(bucket, &sink);
  for (int i = 0; i < kBundles * kPath; ++i) bucket.push_back(publish());

  const auto locks_before = pool.lock_acquisitions();
  const auto recycled_before = cache.stats().recycled.load();
  // Whole bucket at once, then the next 128 updates' paths.
  reclaim::free_all(bucket, &sink);
  for (auto& b : bundles) {
    for (int i = 0; i < kPath; ++i) b.push_back(publish());
  }
  // Bundle by bundle, each followed by one update's path.
  for (auto& b : bundles) {
    reclaim::free_all(b, &sink);
    for (int i = 0; i < kPath; ++i) bucket.push_back(publish());
  }
  EXPECT_EQ(pool.lock_acquisitions(), locks_before);
  EXPECT_EQ(cache.stats().recycled.load() - recycled_before,
            static_cast<std::uint64_t>(2 * kBundles * kPath));

  reclaim::free_all(bucket, &sink);
  cache.flush();
  EXPECT_EQ(cache.stats().live_blocks(), 0u);
  const std::size_t cls = alloc::PoolBackend::class_of(sizeof(PathNode));
  EXPECT_EQ(pool.free_blocks(cls), pool.carved_blocks(cls));
}

}  // namespace
}  // namespace pathcopy
