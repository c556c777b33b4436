// Failure injection: allocation failure at every possible point inside an
// update attempt.
//
// Path copying makes updates naturally transactional — nothing the
// attempt allocated is visible until the root CAS — so an allocation
// failure mid-copy must (a) propagate as bad_alloc, (b) leak nothing once
// the Builder unwinds, and (c) leave the current version untouched and
// fully valid. The FailingAlloc wrapper throws on the Nth allocation;
// tests sweep N across the entire range an operation can allocate, so
// every create<> call site in every structure gets to fail at least once.
//
// The allocator's own free paths get the complementary check: with every
// heap allocation on the thread failing (the replaceable global operator
// new below), a pointer stack that would need to grow cannot, and the
// free paths must still neither throw nor lose a block.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <unordered_set>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "core/atom.hpp"
#include "core/builder.hpp"
#include "persist/btree.hpp"
#include "persist/hamt.hpp"
#include "persist/rbt.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace {
/// Heap allocations this thread may still make before operator new fails;
/// negative means unlimited. Only the code between arming and disarming
/// runs with a budget, so gtest's own allocations are unaffected.
thread_local long g_new_budget = -1;

bool new_may_succeed() noexcept {
  if (g_new_budget < 0) return true;
  if (g_new_budget == 0) return false;
  --g_new_budget;
  return true;
}
}  // namespace

// Every non-aligned form is replaced, so new/delete pairs stay matched
// (malloc/free underneath) also under the sanitizers' interceptors.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  void* p = new_may_succeed() ? std::malloc(n == 0 ? 1 : n) : nullptr;
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return new_may_succeed() ? std::malloc(n == 0 ? 1 : n) : nullptr;
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pathcopy {
namespace {

/// Scoped allocation budget for the calling thread (see g_new_budget).
class NewBudget {
 public:
  explicit NewBudget(long allocations) noexcept { g_new_budget = allocations; }
  NewBudget(const NewBudget&) = delete;
  NewBudget& operator=(const NewBudget&) = delete;
  ~NewBudget() { g_new_budget = -1; }
};

/// Forwards to MallocAlloc but throws std::bad_alloc on allocation number
/// `fail_at` (1-based). Deallocation always succeeds, so unwinding paths
/// can release what was built before the failure.
class FailingAlloc {
 public:
  using RetireBackend = alloc::MallocAlloc::RetireBackend;

  explicit FailingAlloc(alloc::MallocAlloc& base) : base_(&base) {}

  void arm(std::uint64_t fail_at) {
    count_ = 0;
    fail_at_ = fail_at;
  }
  void disarm() { fail_at_ = 0; }
  std::uint64_t allocations() const { return count_; }

  void* allocate(std::size_t bytes, std::size_t align) {
    if (fail_at_ != 0 && ++count_ >= fail_at_) {
      throw std::bad_alloc();
    }
    return base_->allocate(bytes, align);
  }

  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    base_->deallocate(p, bytes, align);
  }

  RetireBackend* retire_backend() noexcept { return base_->retire_backend(); }

 private:
  alloc::MallocAlloc* base_;
  std::uint64_t count_ = 0;
  std::uint64_t fail_at_ = 0;  // 0 = never fail
};

/// Builds a structure of `n` keys with no failures armed, then returns it.
template <class DS>
DS build(FailingAlloc& a, std::int64_t n, std::uint64_t seed) {
  DS t;
  util::Xoshiro256 rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t k = rng.range(-4 * n, 4 * n);
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  return t;
}

/// The core property: for every failure point, the op throws, nothing
/// leaks, and the pre-state is untouched. Returns how many allocations a
/// full successful op makes (to size the sweep).
template <class DS, class Op>
void sweep_failure_points(const char* what, Op&& op) {
  alloc::MallocAlloc base;
  {
    FailingAlloc alloc(base);
    DS t = build<DS>(alloc, 300, 17);
    const std::size_t size_before = t.size();
    const auto live_before = base.stats().live_blocks();
    const void* root_before = t.root_ptr();

    // Measure the op's allocation count on a dry run that we roll back.
    std::uint64_t full_cost = 0;
    {
      core::Builder<FailingAlloc> b(alloc);
      alloc.arm(0);
      (void)op(t, b);
      full_cost = b.stats().created;
      b.rollback();
    }
    ASSERT_GT(full_cost, 0u) << what << ": op must allocate for this sweep";
    ASSERT_EQ(base.stats().live_blocks(), live_before);

    for (std::uint64_t fail_at = 1; fail_at <= full_cost; ++fail_at) {
      {
        core::Builder<FailingAlloc> b(alloc);
        alloc.arm(fail_at);
        bool threw = false;
        try {
          (void)op(t, b);
        } catch (const std::bad_alloc&) {
          threw = true;
        }
        alloc.disarm();
        ASSERT_TRUE(threw) << what << ": failure point " << fail_at << " of "
                           << full_cost;
        b.rollback();  // what the Atom's unwinding does
        // The rolled-back blocks sit in b's recycle bin (they would feed a
        // retry); only the builder's death returns them to the allocator.
      }
      ASSERT_EQ(base.stats().live_blocks(), live_before)
          << what << ": leak at failure point " << fail_at;
      ASSERT_EQ(t.root_ptr(), root_before);
      ASSERT_EQ(t.size(), size_before);
      ASSERT_TRUE(t.check_invariants())
          << what << ": corrupted pre-state at failure point " << fail_at;
    }

    // And the op still succeeds cleanly afterwards.
    DS t2 = test::apply(alloc, [&](auto& b) { return op(t, b); });
    ASSERT_TRUE(t2.check_invariants());
    DS::destroy(t2.root_node(), *base.retire_backend());
  }
  EXPECT_EQ(base.stats().live_blocks(), 0u);
}

struct MixHash {
  std::uint64_t operator()(std::int64_t k) const noexcept {
    std::uint64_t x = static_cast<std::uint64_t>(k) + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

using Treap = persist::Treap<std::int64_t, std::int64_t>;
using Rbt = persist::RbTree<std::int64_t, std::int64_t>;
using B8 = persist::BTree<std::int64_t, std::int64_t, 8>;
using H = persist::Hamt<std::int64_t, std::int64_t, 6, MixHash>;

TEST(FailureInjection, TreapInsertSurvivesEveryFailurePoint) {
  sweep_failure_points<Treap>("treap insert", [](Treap t, auto& b) {
    return t.insert(b, 999'999, 1);
  });
}

TEST(FailureInjection, TreapEraseSurvivesEveryFailurePoint) {
  // Erase an existing mid-range key (found via a probe insert dry run).
  alloc::MallocAlloc base;
  FailingAlloc alloc(base);
  Treap probe = build<Treap>(alloc, 300, 17);
  const std::int64_t victim = probe.kth(probe.size() / 2)->key;
  Treap::destroy(probe.root_node(), *base.retire_backend());
  sweep_failure_points<Treap>("treap erase", [victim](Treap t, auto& b) {
    return t.erase(b, victim);
  });
}

TEST(FailureInjection, RbtInsertSurvivesEveryFailurePoint) {
  sweep_failure_points<Rbt>("rbt insert", [](Rbt t, auto& b) {
    return t.insert(b, 999'999, 1);
  });
}

TEST(FailureInjection, RbtEraseSurvivesEveryFailurePoint) {
  alloc::MallocAlloc base;
  FailingAlloc alloc(base);
  Rbt probe = build<Rbt>(alloc, 300, 17);
  const std::int64_t victim = probe.kth(probe.size() / 2)->key;
  Rbt::destroy(probe.root_node(), *base.retire_backend());
  sweep_failure_points<Rbt>("rbt erase", [victim](Rbt t, auto& b) {
    return t.erase(b, victim);
  });
}

TEST(FailureInjection, BtreeInsertSurvivesEveryFailurePoint) {
  sweep_failure_points<B8>("btree insert", [](B8 t, auto& b) {
    return t.insert(b, 999'999, 1);
  });
}

TEST(FailureInjection, BtreeEraseSurvivesEveryFailurePoint) {
  alloc::MallocAlloc base;
  FailingAlloc alloc(base);
  B8 probe = build<B8>(alloc, 300, 17);
  const std::int64_t victim = *probe.kth_key(probe.size() / 2);
  B8::destroy(probe.root_node(), *base.retire_backend());
  sweep_failure_points<B8>("btree erase", [victim](B8 t, auto& b) {
    return t.erase(b, victim);
  });
}

TEST(FailureInjection, HamtInsertSurvivesEveryFailurePoint) {
  sweep_failure_points<H>("hamt insert", [](H t, auto& b) {
    return t.insert(b, 999'999, 1);
  });
}

TEST(FailureInjection, BuilderDestructorRollsBackOnUnwind) {
  // If the exception escapes past the Builder itself, its destructor must
  // recycle everything without an explicit rollback() call.
  alloc::MallocAlloc base;
  {
    FailingAlloc alloc(base);
    Treap t = build<Treap>(alloc, 100, 3);
    const auto live_before = base.stats().live_blocks();
    alloc.arm(4);  // fail mid-copy
    try {
      core::Builder<FailingAlloc> b(alloc);
      (void)t.insert(b, 999'999, 1);
      FAIL() << "expected bad_alloc";
    } catch (const std::bad_alloc&) {
      // Builder went out of scope during unwinding.
    }
    alloc.disarm();
    EXPECT_EQ(base.stats().live_blocks(), live_before);
    EXPECT_TRUE(t.check_invariants());
    Treap::destroy(t.root_node(), *base.retire_backend());
  }
  EXPECT_EQ(base.stats().live_blocks(), 0u);
}

TEST(FailureInjection, AtomUpdateSurvivesThrowingAttempt) {
  // An update whose first attempt throws must not poison the Atom: the
  // exception propagates to the caller, the version is unchanged, and a
  // clean retry succeeds.
  alloc::MallocAlloc base;
  {
    FailingAlloc alloc(base);
    reclaim::EpochReclaimer smr;
    core::Atom<Treap, reclaim::EpochReclaimer, FailingAlloc> atom(
        smr, *alloc.retire_backend());
    core::Atom<Treap, reclaim::EpochReclaimer, FailingAlloc>::Ctx ctx(smr,
                                                                      alloc);
    for (std::int64_t k = 0; k < 50; ++k) {
      atom.update(ctx, [k](Treap t, auto& b) { return t.insert(b, k, k); });
    }
    const auto version_before = atom.version();
    alloc.arm(2);
    EXPECT_THROW(atom.update(ctx, [](Treap t, auto& b) {
      return t.insert(b, 777, 7);
    }),
                 std::bad_alloc);
    alloc.disarm();
    EXPECT_EQ(atom.version(), version_before);
    EXPECT_FALSE(atom.read(ctx, [](Treap t) { return t.contains(777); }));
    // Clean retry.
    atom.update(ctx, [](Treap t, auto& b) { return t.insert(b, 777, 7); });
    EXPECT_TRUE(atom.read(ctx, [](Treap t) { return t.contains(777); }));
    EXPECT_TRUE(atom.read(ctx, [](Treap t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(base.stats().live_blocks(), 0u);
}

// The pool reserves free-stack room when it carves, and a thread cache
// creates its pointer stack on the class's first use, so no free path
// ever has to grow a stack. With every allocation failing, a stack that
// would have to grow cannot: allocations throw bad_alloc, while the free
// paths (noexcept: a throw would terminate) route blocks wherever they
// fit. After a flush the pool's free stack holds every block it carved,
// each exactly once.
TEST(FailureInjection, FreePathsSurviveStacksThatCannotGrow) {
  constexpr std::size_t kBytes = 64;
  constexpr std::size_t cls = alloc::PoolBackend::class_of(kBytes);
  constexpr std::size_t kN = 200;
  for (long budget = 0; budget < 4; ++budget) {
    alloc::PoolBackend pool;
    alloc::PoolView view(pool);
    std::vector<void*> blocks;
    blocks.reserve(4 * kN);
    for (std::size_t i = 0; i < 4 * kN; ++i) {
      blocks.push_back(view.allocate(kBytes, 8));
    }
    alloc::ThreadCache cache(pool);  // no stack yet: it cannot create one
    alloc::ThreadCache warm(pool);   // has a stack, but it is full
    warm.deallocate(warm.allocate(kBytes, 8), kBytes, 8);
    std::vector<void*> filler(alloc::ThreadCache::capacity(cls));
    for (void*& p : filler) p = view.allocate(kBytes, 8);
    ASSERT_TRUE(warm.accept_retired(&pool, filler.data(), filler.size(),
                                    kBytes, 8));
    std::vector<void*> raw(kN);  // moved by pop/push only, never counted
    ASSERT_EQ(pool.pop_batch(cls, raw.data(), kN), kN);
    std::vector<void*> out(pool.carved_blocks(cls) + kN);  // needs a reserve
    const std::size_t carved_before = pool.carved_blocks(cls);
    bool accepted = true;
    bool alloc_threw = false;
    bool pop_threw = false;
    {
      NewBudget armed(budget);
      void* const* b = blocks.data();
      for (std::size_t i = 0; i < kN; ++i) cache.deallocate(b[i], kBytes, 8);
      accepted = cache.accept_retired(&pool, b + kN, kN, kBytes, 8);
      if (!accepted) pool.free_batch(b + kN, kN, kBytes, 8);
      warm.accept_retired(&pool, b + 2 * kN, kN / 2, kBytes, 8);
      for (std::size_t i = 5 * kN / 2; i < 3 * kN; ++i) {
        warm.deallocate(b[i], kBytes, 8);
      }
      pool.free_batch(b + 3 * kN, kN / 2, kBytes, 8);
      for (std::size_t i = 7 * kN / 2; i < 4 * kN; ++i) {
        view.deallocate(b[i], kBytes, 8);
      }
      pool.push_batch(cls, raw.data(), kN);
      try {
        void* p = cache.allocate(kBytes, 8);
        cache.deallocate(p, kBytes, 8);
      } catch (const std::bad_alloc&) {
        alloc_threw = true;
      }
      try {
        pool.pop_batch(cls, out.data(), out.size());
        pool.push_batch(cls, out.data(), out.size());
      } catch (const std::bad_alloc&) {
        pop_threw = true;
      }
    }
    if (budget == 0) {
      EXPECT_FALSE(accepted) << "a stack that cannot be created refuses";
      EXPECT_TRUE(alloc_threw);
      EXPECT_TRUE(pop_threw);
      EXPECT_EQ(pool.carved_blocks(cls), carved_before);
    }
    cache.flush();
    warm.flush();
    // Pool, cache and warm counters together balance (unsigned wrap: a
    // cache counts frees of blocks the pool's own counters allocated).
    EXPECT_EQ(pool.stats().live_blocks() + cache.stats().live_blocks() +
                  warm.stats().live_blocks(),
              0u)
        << "budget " << budget;
    const std::size_t carved = pool.carved_blocks(cls);
    ASSERT_EQ(pool.free_blocks(cls), carved) << "budget " << budget;
    std::vector<void*> all(carved);
    ASSERT_EQ(pool.pop_batch(cls, all.data(), carved), carved);
    EXPECT_EQ(std::unordered_set<void*>(all.begin(), all.end()).size(), carved)
        << "budget " << budget << ": a block came back twice";
    pool.push_batch(cls, all.data(), carved);
  }
}

}  // namespace
}  // namespace pathcopy
