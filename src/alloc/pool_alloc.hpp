// Globally shared, mutex-protected size-class pool.
//
// Every allocate and free on this class takes one process-wide lock. On
// its own (PoolView) it is the *intentionally contended* allocator: the
// lower bound in the allocator ablation (experiment E6), reproducing the
// shared-allocator collapse the paper conjectures in Appendix B.
// ThreadCache (thread_cache_alloc.hpp) layers per-thread pointer stacks on
// top of it and comes here only to refill or spill a batch.
//
// Free blocks are kept as a stack of pointers per size class, not as an
// intrusive list threaded through the blocks. A pop_batch/push_batch trip
// therefore copies pointers and never reads or writes a freed block under
// the mutex: an intrusive push would store a `next` pointer into every
// cold block, and an intrusive pop would chase one dependent cache miss
// per block (the per-block cost Bonwick & Adams' magazine layer, USENIX
// ATC 2001, was designed to avoid).
//
// The stacks never grow on a free path. A size class's free blocks can
// never outnumber the blocks carved for it, so carve reserves stack
// capacity for every block it creates (on the allocating path, which may
// throw) and push_batch / deallocate / free_batch stay noexcept.
//
// Memory cost: the reserve grows a stack by half its capacity at a time,
// so each carved block, live or free, reserves 8 to 12 bytes of stack;
// only the part the stack has ever filled is written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "alloc/stats.hpp"
#include "util/align.hpp"

namespace pathcopy::alloc {

class PoolBackend {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxPooled = 512;  // larger blocks go to operator new
  static constexpr std::size_t kClasses = kMaxPooled / kGranule;
  static constexpr std::size_t kSlabBytes = 1 << 18;  // 256 KiB

  PoolBackend() = default;
  PoolBackend(const PoolBackend&) = delete;
  PoolBackend& operator=(const PoolBackend&) = delete;
  ~PoolBackend();

  void* allocate(std::size_t bytes, std::size_t align);
  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept;

  /// Thread-safe free path for reclaimers.
  void free_bytes(void* p, std::size_t bytes, std::size_t align) noexcept {
    deallocate(p, bytes, align);
  }

  /// Pops n blocks of the given size class into out, the most recently
  /// freed first; carves fresh slab space if the free stack runs dry.
  /// Returns n. On a throw (bad_alloc) every block it took or carved is
  /// back on the free stack.
  std::size_t pop_batch(std::size_t size_class, void** out, std::size_t n);

  /// Returns n blocks of the given size class to the shared free stack.
  /// Copies n pointers; never touches the blocks and never allocates.
  void push_batch(std::size_t size_class, void* const* items, std::size_t n) noexcept;

  /// Batch twin of free_bytes: returns n same-size blocks in ONE locked
  /// trip (or n operator-delete calls for oversize blocks). This is the
  /// reclaimers' bundle-granular exit path.
  void free_batch(void* const* items, std::size_t n, std::size_t bytes,
                  std::size_t align) noexcept;

  static constexpr std::size_t class_of(std::size_t bytes) noexcept {
    const std::size_t sz = util::round_up(bytes < kGranule ? kGranule : bytes, kGranule);
    return sz / kGranule - 1;
  }
  static constexpr std::size_t class_bytes(std::size_t size_class) noexcept {
    return (size_class + 1) * kGranule;
  }

  const AllocStats& stats() const noexcept { return stats_; }
  std::uint64_t lock_acquisitions() const noexcept {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

  /// Blocks of the class on the shared free stack / ever carved for it.
  /// Once every cache has flushed and nothing is live, the two agree.
  std::size_t free_blocks(std::size_t size_class);
  std::size_t carved_blocks(std::size_t size_class);

 private:
  // Pre: mu_ held. Carves n blocks of the class into out, reserving free
  // stack room for them first. On a throw, the blocks this call already
  // carved go onto the free stack.
  void carve_locked(std::size_t size_class, void** out, std::size_t n);
  // Pre: mu_ held. Debug-only: asserts p was carved for size_class (a
  // carved block's class is permanent — free stacks never mix classes),
  // so a retire path that reports a different size than it allocated
  // trips here instead of silently corrupting a free stack.
  void check_class_locked(const void* p, std::size_t size_class) noexcept;

  std::mutex mu_;
  std::vector<void*> free_[kClasses];
  std::size_t carved_[kClasses]{};
  std::vector<std::unique_ptr<char[]>> slabs_;
  char* bump_ = nullptr;
  char* end_ = nullptr;
  AllocStats stats_;
  std::atomic<std::uint64_t> lock_acquisitions_{0};
#ifndef NDEBUG
  std::unordered_map<const void*, std::uint32_t> carved_class_;
#endif
};

/// Allocator view over the shared pool: every call locks the backend.
class PoolView {
 public:
  using RetireBackend = PoolBackend;

  explicit PoolView(PoolBackend& backend) noexcept : backend_(&backend) {}

  void* allocate(std::size_t bytes, std::size_t align) {
    return backend_->allocate(bytes, align);
  }
  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    backend_->deallocate(p, bytes, align);
  }
  RetireBackend* retire_backend() noexcept { return backend_; }

 private:
  PoolBackend* backend_;
};

}  // namespace pathcopy::alloc
