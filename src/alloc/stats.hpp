// Allocation counters shared by all allocator policies.
//
// Counters are relaxed atomics: they are diagnostics (leak checks in tests,
// throughput attribution in benches), never synchronization. Any thread
// may read them. How they are bumped depends on who writes them:
//
//   * Writer::kShared (default) — several threads write the same counters
//     (PoolBackend, MallocAlloc): a lock-prefixed fetch_add.
//   * Writer::kOwner — only the owning thread writes (ThreadCache): a
//     relaxed load + store, which is an ordinary move on x86 instead of a
//     locked read-modify-write. Other threads still read a torn-free value.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pathcopy::alloc {

struct AllocStats {
  enum class Writer { kShared, kOwner };

  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> bytes_freed{0};
  /// Retired blocks absorbed straight into a thread cache (ThreadCache's
  /// RetireSink path) instead of travelling through the shared backend.
  std::atomic<std::uint64_t> recycled{0};
  /// Trips to the shared backend (pop_batch/push_batch/free_batch calls);
  /// each trip is one mutex acquisition on PoolBackend.
  std::atomic<std::uint64_t> backend_trips{0};

  template <Writer W = Writer::kShared>
  void on_alloc(std::size_t n) noexcept {
    add<W>(allocs, 1);
    add<W>(bytes_allocated, n);
  }
  template <Writer W = Writer::kShared>
  void on_free(std::size_t n) noexcept {
    add<W>(frees, 1);
    add<W>(bytes_freed, n);
  }
  template <Writer W = Writer::kShared>
  void on_free_n(std::uint64_t blocks, std::size_t total_bytes) noexcept {
    add<W>(frees, blocks);
    add<W>(bytes_freed, total_bytes);
  }
  template <Writer W = Writer::kShared>
  void on_recycled(std::uint64_t blocks) noexcept {
    add<W>(recycled, blocks);
  }
  template <Writer W = Writer::kShared>
  void on_backend_trip() noexcept {
    add<W>(backend_trips, 1);
  }

  /// Blocks currently outstanding. Only meaningful once all threads have
  /// quiesced (relaxed counters give no cross-thread snapshot guarantee).
  std::uint64_t live_blocks() const noexcept {
    return allocs.load(std::memory_order_relaxed) -
           frees.load(std::memory_order_relaxed);
  }
  std::uint64_t live_bytes() const noexcept {
    return bytes_allocated.load(std::memory_order_relaxed) -
           bytes_freed.load(std::memory_order_relaxed);
  }

 private:
  template <Writer W>
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    if constexpr (W == Writer::kOwner) {
      c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    } else {
      c.fetch_add(n, std::memory_order_relaxed);
    }
  }
};

}  // namespace pathcopy::alloc
