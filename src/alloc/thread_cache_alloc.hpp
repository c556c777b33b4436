// Per-thread block cache over the shared PoolBackend.
//
// Each worker thread owns one ThreadCache. It keeps, per size class, a
// stack of free block pointers; allocate pops one and deallocate pushes
// one, with no lock and no atomic read-modify-write. The shared pool is
// touched only to refill an empty stack or to spill a full one, and each
// such trip moves a batch of pointers. This is the "fixed allocator" arm
// of experiment E6: the paper attributes its high-core-count collapse to
// the Java allocator, and this policy shows that a thread-cached
// allocator removes that ceiling.
//
// retire_sink() closes the loop on the free side. A reclaimer running on
// this thread hands each ripe retire group to accept_retired(), which
// copies the block pointers onto the stack: retired bytes become
// allocatable again without a backend trip. The stack is sized so that
// this holds for a whole ripe epoch bucket (see kStackSlots), which is how
// path copying frees: EpochReclaimer releases a thread's garbage one
// bucket at a time, and that thread's next updates allocate it back.
//
// Per size class the cache holds at most capacity(cls) blocks (see
// kStackSlots for the derivation). The pointer array is created, with a
// nothrow new, the first time the class is used; afterwards nothing on
// any path allocates. If it cannot be created, allocate throws bad_alloc,
// deallocate sends the block straight to the backend, and accept_retired
// refuses the group so the reclaimer frees it through the backend: the
// free paths stay noexcept and lose no block.
//
// The sink must be deregistered (ThreadHandle::release / context
// teardown) before this cache dies; cross-thread bundles keep flowing
// through the backend's free_batch instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>

#include "alloc/pool_alloc.hpp"
#include "alloc/stats.hpp"
#include "reclaim/retired.hpp"
#include "util/assert.hpp"

namespace pathcopy::alloc {

class ThreadCache {
 public:
  using RetireBackend = PoolBackend;

  /// Sizing. EpochReclaimer frees a thread's retires one bucket at a
  /// time, and a bucket collects up to kScanInterval = 128 retires before
  /// the thread's own scan can advance the epoch. On the paper's Batch
  /// workload (2^20-key treap, 48-byte nodes) a retire is one copied path:
  /// 26.7 nodes on average (traced run; 3-8K nodes pending over its three
  /// threads), and a treap path's length has a tail, so take 32 nodes. A
  /// ripe bucket is then 128 x 32 = 4,096 blocks. It lands on a stack that
  /// may still hold up to one refill batch (an eighth of the capacity), so
  /// the stack needs 4,096 / (7/8) = 4,682 slots; kStackSlots adds ~30%
  /// headroom for longer paths (a bucket of 42-node paths still fits).
  /// kCacheBytes caps the bytes one class may hold, so classes above
  /// 64 bytes get proportionally fewer slots (768 for 512-byte blocks);
  /// the 48-byte class of the binary trees' nodes gets min(6,144, 8,192).
  static constexpr std::size_t kStackSlots = 6144;
  static constexpr std::size_t kCacheBytes = std::size_t{384} << 10;

  /// Blocks the class's stack holds, and blocks moved per refill or (at
  /// least) per spill. The pointer array costs 8 bytes per slot: 48 KiB
  /// for the 48-byte class.
  static constexpr std::size_t capacity(std::size_t size_class) noexcept {
    return std::min(kStackSlots,
                    kCacheBytes / PoolBackend::class_bytes(size_class));
  }
  static constexpr std::size_t batch(std::size_t size_class) noexcept {
    return capacity(size_class) / 8;
  }

  explicit ThreadCache(PoolBackend& backend) noexcept : backend_(&backend) {}
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;
  ~ThreadCache() { flush(); }

  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes > PoolBackend::kMaxPooled || align > alignof(std::max_align_t)) {
      return backend_->allocate(bytes, align);
    }
    const std::size_t cls = PoolBackend::class_of(bytes);
    Stack& s = stacks_[cls];
    if (s.count == 0) refill(cls);
    stats_.on_alloc<kOwner>(PoolBackend::class_bytes(cls));
    return s.items[--s.count];
  }

  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    if (bytes > PoolBackend::kMaxPooled || align > alignof(std::max_align_t)) {
      backend_->deallocate(p, bytes, align);
      return;
    }
    const std::size_t cls = PoolBackend::class_of(bytes);
    stats_.on_free<kOwner>(PoolBackend::class_bytes(cls));
    if (!ensure_stack(cls)) {
      backend_->push_batch(cls, &p, 1);
      stats_.on_backend_trip<kOwner>();
      return;
    }
    push(cls, &p, 1);
  }

  /// RetireSink entry: absorbs a whole same-size group of retired blocks
  /// (destructors already run) onto the class's stack. Refuses groups that
  /// belong to a different backend or exceed the pooled classes, and
  /// groups whose stack cannot be created — those fall through to the
  /// backend's own free path.
  bool accept_retired(void* backend, void* const* ptrs, std::size_t n,
                      std::size_t bytes, std::size_t align) noexcept {
    if (backend != static_cast<void*>(backend_) ||
        bytes > PoolBackend::kMaxPooled || align > alignof(std::max_align_t)) {
      return false;
    }
    const std::size_t cls = PoolBackend::class_of(bytes);
    if (!ensure_stack(cls)) return false;
    stats_.on_free_n<kOwner>(n, PoolBackend::class_bytes(cls) * n);
    stats_.on_recycled<kOwner>(n);
    push(cls, ptrs, n);
    return true;
  }

  /// Type-erased handle reclaimers use to route expired bundles here.
  reclaim::RetireSink retire_sink() noexcept {
    return reclaim::RetireSink{this, &sink_thunk};
  }

  /// Returns every cached block to the backend (run at thread exit).
  void flush() noexcept {
    for (std::size_t cls = 0; cls < PoolBackend::kClasses; ++cls) {
      Stack& s = stacks_[cls];
      if (s.count > 0) {
        backend_->push_batch(cls, s.items.get(), s.count);
        stats_.on_backend_trip<kOwner>();
        s.count = 0;
      }
    }
  }

  /// Blocks currently cached for the class.
  std::size_t cached(std::size_t size_class) const noexcept {
    return stacks_[size_class].count;
  }

  RetireBackend* retire_backend() noexcept { return backend_; }
  const AllocStats& stats() const noexcept { return stats_; }

 private:
  static constexpr AllocStats::Writer kOwner = AllocStats::Writer::kOwner;

  struct Stack {
    std::unique_ptr<void*[]> items;  // capacity(cls) slots once allocated
    std::size_t count = 0;
  };

  /// Creates the class's pointer array on first use; false if it cannot.
  bool ensure_stack(std::size_t cls) noexcept {
    Stack& s = stacks_[cls];
    if (s.items == nullptr) {
      s.items.reset(new (std::nothrow) void*[capacity(cls)]);
    }
    return s.items != nullptr;
  }

  void refill(std::size_t cls) {
    if (!ensure_stack(cls)) throw std::bad_alloc();
    Stack& s = stacks_[cls];
    s.count = backend_->pop_batch(cls, s.items.get(), batch(cls));
    stats_.on_backend_trip<kOwner>();
  }

  /// Pushes n pointers onto an allocated stack. When they do not fit, the
  /// oldest blocks (bottom of the stack first, then the front of ptrs) go
  /// back to the backend: the overflow, but at least one batch, so single
  /// frees at the brim do not each pay a trip.
  void push(std::size_t cls, void* const* ptrs, std::size_t n) noexcept {
    Stack& s = stacks_[cls];
    const std::size_t cap = capacity(cls);
    if (s.count + n > cap) {
      const std::size_t spill =
          std::min(s.count + n, std::max(s.count + n - cap, batch(cls)));
      const std::size_t from_stack = std::min(spill, s.count);
      if (from_stack > 0) {
        backend_->push_batch(cls, s.items.get(), from_stack);
        stats_.on_backend_trip<kOwner>();
        s.count -= from_stack;
        std::memmove(s.items.get(), s.items.get() + from_stack,
                     s.count * sizeof(void*));
      }
      const std::size_t from_ptrs = spill - from_stack;
      if (from_ptrs > 0) {
        backend_->push_batch(cls, ptrs, from_ptrs);
        stats_.on_backend_trip<kOwner>();
        ptrs += from_ptrs;
        n -= from_ptrs;
      }
    }
    std::memcpy(s.items.get() + s.count, ptrs, n * sizeof(void*));
    s.count += n;
  }

  static bool sink_thunk(void* obj, void* backend, void* const* ptrs,
                         std::size_t n, std::size_t bytes,
                         std::size_t align) noexcept {
    return static_cast<ThreadCache*>(obj)->accept_retired(backend, ptrs, n,
                                                          bytes, align);
  }

  PoolBackend* backend_;
  Stack stacks_[PoolBackend::kClasses];
  AllocStats stats_;
};

}  // namespace pathcopy::alloc
