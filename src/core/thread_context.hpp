// Per-thread execution context for operating on an Atom.
//
// Bundles the three things a worker thread needs: its reclaimer
// registration, its allocator view (shared or thread-local depending on
// the policy), and its operation counters. Contexts are created on the
// owning thread and must not be shared.
//
// Construction also closes the memory loop when both sides support it:
// if the allocator exposes a retire_sink() (ThreadCache) and the
// reclaimer handle accepts one (the three real reclaimers), the handle is
// wired to drop expired retire bundles straight into the allocator's
// per-class pointer stacks. The declaration-order contract matters:
// declare the allocator BEFORE the context (as ShardExecutor workers and
// the benches do), so the context — and with it the handle, which clears
// its sink on release — dies first.
#pragma once

#include "core/builder.hpp"
#include "core/stats.hpp"

namespace pathcopy::core {

template <class Smr, class Alloc>
struct ThreadContext {
  using SmrHandle = typename Smr::ThreadHandle;

  ThreadContext(Smr& smr, Alloc& alloc)
      : smr_handle(smr.register_thread()), alloc(&alloc) {
    if constexpr (requires(SmrHandle& h, Alloc& a) {
                    h.set_retire_sink(a.retire_sink());
                  }) {
      smr_handle.set_retire_sink(alloc.retire_sink());
    }
  }

  ThreadContext(ThreadContext&&) noexcept = default;
  ThreadContext& operator=(ThreadContext&&) noexcept = default;
  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  SmrHandle smr_handle;
  Alloc* alloc;
  OpStats stats;
  /// Buffers every Builder this thread's updates run on borrows, so an
  /// update records its path without heap allocation.
  BuilderBuffers builder_buffers;
  /// Feed a failed install attempt's nodes back to the next attempt via
  /// the builder's bin (default). Off restores the pre-recycling
  /// allocate-afresh-per-retry behaviour for A/B measurement.
  bool recycle_fresh = true;
};

}  // namespace pathcopy::core
