// Hazard-pointer reclamation specialized for path-copied versions.
//
// Interior nodes of a persistent tree are immutable, so a reader only
// ever needs to protect one pointer: the version root it loaded. This
// collapses the general hazard-pointer scheme to a single hazard slot per
// thread plus the classic load/announce/validate loop on Root_Ptr.
//
// A protected root r pins every node of r's version — including nodes
// that later transitions superseded. Protection is keyed on *eras*
// (hazard-era style): alongside the root pointer, pin announces the
// version counter value read *before* loading the root. The counter
// trails the root (writers bump it after their CAS), so the announced
// era e lower-bounds the pinned root's version, and every node the
// reader can touch — the pinned snapshot plus anything the reader
// itself publishes afterwards — dies at a version > e. A bundle with
// death version d is freed only when every announced era is >= d.
//
// Keying on the announced era rather than on a root -> version side map
// matters: a map entry can only be registered *after* the installing
// CAS publishes the root, so a reader can validly pin a root the map
// has never heard of, and map entries keyed by address are exposed to
// reuse ABA. The era is announced by the reader itself, is always
// conservative, and needs no shared lookup state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "reclaim/retired.hpp"
#include "util/align.hpp"

namespace pathcopy::reclaim {

class HazardRootReclaimer {
 public:
  static constexpr std::uint64_t kScanInterval = 64;
  /// Era announced by idle slots (no guard live).
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  HazardRootReclaimer() = default;
  HazardRootReclaimer(const HazardRootReclaimer&) = delete;
  HazardRootReclaimer& operator=(const HazardRootReclaimer&) = delete;
  ~HazardRootReclaimer();

  struct Slot {
    std::atomic<const void*> hazard{nullptr};
    std::atomic<std::uint64_t> era{kIdle};
    std::atomic<bool> in_use{false};
  };

  class ThreadHandle {
   public:
    ThreadHandle() noexcept = default;
    ThreadHandle(ThreadHandle&& o) noexcept
        : slot_(o.slot_), since_scan_(o.since_scan_), sink_(o.sink_) {
      o.slot_ = nullptr;
      o.sink_ = RetireSink{};
    }
    ThreadHandle& operator=(ThreadHandle&& o) noexcept {
      if (this != &o) {
        release();
        slot_ = o.slot_;
        since_scan_ = o.since_scan_;
        sink_ = o.sink_;
        o.slot_ = nullptr;
        o.sink_ = RetireSink{};
      }
      return *this;
    }
    ThreadHandle(const ThreadHandle&) = delete;
    ThreadHandle& operator=(const ThreadHandle&) = delete;
    ~ThreadHandle() { release(); }

    /// Routes bundles this thread's scans ripen into a local thread
    /// cache. Handle-local: the sink dies with the handle, which a
    /// stack-ordered ThreadCache outlives.
    void set_retire_sink(const RetireSink& sink) noexcept { sink_ = sink; }

   private:
    friend class HazardRootReclaimer;
    explicit ThreadHandle(Slot* s) noexcept : slot_(s) {}
    void release() noexcept {
      if (slot_ != nullptr) {
        slot_->hazard.store(nullptr, std::memory_order_release);
        slot_->era.store(kIdle, std::memory_order_release);
        slot_->in_use.store(false, std::memory_order_release);
        slot_ = nullptr;
      }
      sink_ = RetireSink{};
    }
    Slot* slot_ = nullptr;
    std::uint64_t since_scan_ = 0;
    RetireSink sink_{};
  };

  class Guard {
   public:
    Guard(Guard&& o) noexcept : slot_(o.slot_), root_(o.root_) { o.slot_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard() {
      if (slot_ != nullptr) {
        slot_->hazard.store(nullptr, std::memory_order_release);
        slot_->era.store(kIdle, std::memory_order_release);
      }
    }
    const void* root() const noexcept { return root_; }

   private:
    friend class HazardRootReclaimer;
    Guard(Slot* slot, const void* root) noexcept : slot_(slot), root_(root) {}
    Slot* slot_;
    const void* root_;
  };

  ThreadHandle register_thread();

  /// Standard hazard protocol plus the era announcement: read the version
  /// counter, load the root, announce (era, root), re-validate, loop.
  Guard pin(ThreadHandle& h, const std::atomic<const void*>& root,
            const std::atomic<std::uint64_t>& version);

  void retire_bundle(ThreadHandle& h, std::uint64_t death_version,
                     const void* old_root, const void* new_root,
                     std::vector<Retired>&& nodes);

  void drain_all();

  std::uint64_t freed_nodes() const noexcept {
    return freed_.load(std::memory_order_relaxed);
  }
  std::uint64_t pending_nodes() const noexcept {
    return retired_.load(std::memory_order_relaxed) -
           freed_.load(std::memory_order_relaxed);
  }

 private:
  // `sink` (nullable) must belong to the calling thread.
  void collect(const RetireSink* sink);
  std::uint64_t min_protected_era_locked();

  std::mutex registry_mu_;
  std::vector<std::unique_ptr<util::Padded<Slot>>> slots_;

  std::mutex mu_;  // guards bundles_
  std::vector<Bundle> bundles_;

  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> retired_{0};
};

}  // namespace pathcopy::reclaim
