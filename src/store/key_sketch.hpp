// KeySketch: a uniform reservoir sample of the store's offered key
// traffic — the distribution model the Rebalancer's tablet plans are
// fitted to: per-tablet loads, and the quantile cuts that split a hot
// tablet.
//
// Tablet planning needs an unbiased sample of the keys *operations
// target* (offered load), not of the keys *present* (stored mass): a
// Zipfian workload hammers a handful of keys that occupy a sliver of the
// keyspace, and balancing stored bytes would leave the hot shard as hot
// as before. Classic reservoir sampling (Vitter's algorithm R) over the
// op stream gives exactly that: after N offered keys, every offered key
// is in the reservoir with probability R/N, so the reservoir's empirical
// quantiles converge on the offered distribution's quantiles.
//
// Hot-path cost is kept off the sessions: each Session buffers keys
// locally (plain vector, no atomics) and flushes a few hundred at a time
// through offer(), which takes the sketch mutex once per flush. At the
// bench's op rates that is one brief lock every ~256 ops per thread.
//
// reset() forgets the stream — the Rebalancer calls it after a
// migrate_to() so the next plan is fitted to post-flip traffic rather
// than to a stale mixture (a moving hotspot would otherwise drag its
// history behind it); tick() only decay()s it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace pathcopy::store {

template <class K>
class KeySketch {
 public:
  explicit KeySketch(std::size_t reservoir = 4096,
                     std::uint64_t seed = 0x5ce7cb9151ab3645ULL)
      : capacity_(reservoir), rng_(seed) {
    sample_.reserve(capacity_);
  }

  /// Folds one session's buffered keys into the reservoir.
  void offer(std::span<const K> keys) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const K& k : keys) {
      ++offered_;
      if (sample_.size() < capacity_) {
        sample_.push_back(k);
      } else {
        const std::uint64_t j = rng_.below(offered_);
        if (j < capacity_) sample_[static_cast<std::size_t>(j)] = k;
      }
    }
  }

  /// Keys offered since construction / the last reset().
  std::uint64_t offered() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return offered_;
  }

  /// A sorted copy of the current reservoir (the Rebalancer's input).
  std::vector<K> sorted_sample() const {
    std::vector<K> out;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      out = sample_;
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Forgets the stream (reservoir and count).
  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    sample_.clear();
    offered_ = 0;
  }

  /// Ages the stream instead of forgetting it: keeps each reservoir
  /// entry with probability num/den and scales the offered count by the
  /// same factor. The continuous rebalancer calls this after a
  /// single-tablet flip — the offered distribution is a property of the
  /// workload, not of the topology, so most of the sample is still
  /// valid; full reset() would force a cold re-fill before every small
  /// move, while decay keeps half the evidence and still lets a moving
  /// hotspot wash out of the reservoir within a few flips.
  void decay(std::uint64_t num, std::uint64_t den) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      if (rng_.below(den) < num) sample_[kept++] = sample_[i];
    }
    sample_.resize(kept);
    offered_ = offered_ * num / den;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<K> sample_;
  std::uint64_t offered_ = 0;
  util::Xoshiro256 rng_;
};

}  // namespace pathcopy::store
