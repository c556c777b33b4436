// store_mixed: the sharded store's batched path on the client threads
// (execute_batch through CombiningAtom, batched read sweeps, consistent-cut
// scans).
//
// Each client owns a key stripe — keys k with (k / 2) mod clients == its
// index — and keeps a bitmap oracle of it, so every write result and every
// read of an own key is predicted exactly; the oracle is consulted and
// updated outside the timed call. Values always equal their keys.
#include <algorithm>
#include <thread>

#include "core/combining.hpp"
#include "persist/avl.hpp"
#include "seq/seq_treap.hpp"
#include "store/router.hpp"
#include "store/sharded_map.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace pc = pathcopy;
using Smr = pc::reclaim::EpochReclaimer;
using Cache = pc::alloc::ThreadCache;
using Key = std::int64_t;
using SeqTreap = pc::seq::SeqTreap<Key, Key>;

/// Keeps the seq baselines' finds observable.
volatile std::uint64_t g_sink = 0;

std::uint64_t client_seed(std::uint64_t seed, std::size_t tid) {
  std::uint64_t s = seed ^ (0xd1b54a32d192ed03ULL * (tid + 1));
  return pc::util::splitmix64(s);
}

/// Client `me`'s share of [0, keyspace): keys with (k / 2) % clients == me,
/// so every stripe holds as many even (seeded) keys as odd ones.
struct Stripe {
  Key keyspace;
  Key clients;
  Key me;

  bool owns(Key k) const { return (k >> 1) % clients == me; }
  Key uniform(pc::util::Xoshiro256& rng) const {
    const auto blocks = static_cast<std::uint64_t>(keyspace / 2 / clients);
    const Key blk = static_cast<Key>(rng.below(blocks)) * clients + me;
    return blk * 2 + static_cast<Key>(rng.below(2));
  }
  /// Moves a draw onto this stripe, keeping it within a few keys.
  Key map(Key d) const {
    Key blk = (d >> 1) - (d >> 1) % clients + me;
    if (blk * 2 >= keyspace) blk -= clients;
    return blk * 2 + (d & 1);
  }
};

/// Bitmap oracle of one stripe (indexed by key; only own keys are used).
/// The store is seeded with every even key.
struct Oracle {
  explicit Oracle(Key keyspace) : present(static_cast<std::size_t>(keyspace)) {
    for (Key k = 0; k < keyspace; k += 2) present[static_cast<std::size_t>(k)] = 1;
  }
  /// Predicted result of a write, and its effect.
  bool write(bool insert, Key k) {
    std::uint8_t& p = present[static_cast<std::size_t>(k)];
    const bool expect = insert ? p == 0 : p == 1;
    if (expect) net += insert ? 1 : -1;
    p = insert ? 1 : 0;
    return expect;
  }
  bool has(Key k) const { return present[static_cast<std::size_t>(k)] != 0; }
  std::vector<std::uint8_t> present;
  std::int64_t net = 0;  // own keys inserted minus erased since seeding
};

std::vector<std::pair<Key, Key>> even_items(Key keyspace) {
  std::vector<std::pair<Key, Key>> items;
  items.reserve(static_cast<std::size_t>(keyspace / 2));
  for (Key k = 0; k < keyspace; k += 2) items.emplace_back(k, k);
  return items;
}

/// Checks the whole store against the union of the clients' oracles
/// after the run; returns the number of keys that disagree.
template <class Session>
std::uint64_t audit(Session& sess, const std::vector<const Oracle*>& oracles,
                    const std::vector<Stripe>& stripes, std::size_t& resident) {
  std::uint64_t bad = 0;
  std::uint64_t expected = 0;
  for (std::size_t c = 0; c < oracles.size(); ++c) {
    for (std::size_t k = 0; k < oracles[c]->present.size(); ++k) {
      if (oracles[c]->present[k] != 0 && stripes[c].owns(static_cast<Key>(k))) {
        ++expected;
      }
    }
  }
  const auto items = sess.items();
  resident = items.size();
  for (const auto& [k, v] : items) {
    const Stripe& st = stripes[static_cast<std::size_t>((k >> 1) %
                                                        stripes[0].clients)];
    if (v != k || !oracles[static_cast<std::size_t>(st.me)]->has(k)) ++bad;
  }
  bad += items.size() > expected ? items.size() - expected
                                 : expected - items.size();
  return bad;
}

// ============================================================ store_mixed

using AvlUc = pc::core::CombiningAtom<pc::persist::AvlTree<Key, Key>, Smr, Cache>;
using MixedMap = pc::store::ShardedMap<AvlUc, pc::store::RangeRouter<Key>>;

constexpr Key kMixedKeyspace = Key{1} << 21;
constexpr std::size_t kMixedShards = 2;
constexpr std::size_t kMixedClients = 2;
constexpr std::size_t kCallKeys = 64;
constexpr std::size_t kScanLimit = 100;

/// Teardown runs bottom-up: the map frees its shards, the caches flush,
/// the pool goes last.
struct MixedFixture {
  pc::alloc::PoolBackend pool;
  CacheRegistry caches{pool};
  std::unique_ptr<MixedMap> map;
  Gate gate;
};

std::unique_ptr<MixedFixture> set_up_mixed() {
  auto fx = std::make_unique<MixedFixture>();
  // map root, seeding session, clients, audit session
  fx->caches.reserve(3 + kMixedClients);
  fx->map = std::make_unique<MixedMap>(
      kMixedShards, fx->caches.take(),
      pc::store::RangeRouter<Key>::uniform(0, kMixedKeyspace, kMixedShards));
  {
    const auto items = even_items(kMixedKeyspace);
    MixedMap::Session sess(*fx->map, fx->caches.take());
    sess.seed_sorted(items.begin(), items.end());
  }
  return fx;
}

/// One store_mixed client: calls cycle batch, multi_get, batch, ...,
/// with every 8th call a scan.
struct MixedClient {
  using Req = MixedMap::BatchRequest;
  using Kind = MixedMap::OpKind;

  MixedClient(std::size_t me, std::uint64_t seed)
      : stripe{kMixedKeyspace, static_cast<Key>(kMixedClients),
               static_cast<Key>(me)},
        oracle(kMixedKeyspace),
        rng(client_seed(seed, me)),
        reqs(kCallKeys, Req{Kind::kInsert, 0, 0}),
        keys(kCallKeys),
        outs(kCallKeys) {}

  enum class Call { kBatch, kMultiGet, kScan };

  /// Draws the next call's inputs.
  Call next() {
    const std::uint64_t i = calls++ % 8;
    if (i == 7) {
      scan_lo = static_cast<Key>(rng.below(kMixedKeyspace));
      return Call::kScan;
    }
    if (i % 2 == 0) {
      for (Req& r : reqs) {
        const Key k = stripe.uniform(rng);
        r = rng.chance(1, 2) ? Req{Kind::kInsert, k, k}
                             : Req{Kind::kErase, k, std::nullopt};
      }
      return Call::kBatch;
    }
    for (Key& k : keys) k = static_cast<Key>(rng.below(kMixedKeyspace));
    return Call::kMultiGet;
  }

  bool check_batch() {
    bool ok = true;
    for (std::size_t i = 0; i < kCallKeys; ++i) {
      const bool insert = reqs[i].kind == Kind::kInsert;
      if (oracle.write(insert, reqs[i].key) != results[i]) ok = false;
    }
    progress->set_net(oracle.net);
    return ok;
  }

  bool check_multi_get() const {
    for (std::size_t i = 0; i < kCallKeys; ++i) {
      const Key k = keys[i];
      if (outs[i].present() && *outs[i].value != k) return false;
      if (stripe.owns(k) && outs[i].present() != oracle.has(k)) return false;
    }
    return true;
  }

  /// Rows must be ascending, in range, and agree with the oracle on every
  /// own key they cover — present rows present, skipped keys absent.
  bool check_scan(std::size_t n) const {
    if (n != rows.size() || n > kScanLimit) return false;
    const Key end = n == kScanLimit ? rows.back().first + 1 : kMixedKeyspace;
    std::size_t r = 0;
    for (Key k = scan_lo; k < end; ++k) {
      const bool listed = r < n && rows[r].first == k;
      if (listed) {
        if (rows[r].second != k) return false;
        ++r;
      }
      if (stripe.owns(k) && listed != oracle.has(k)) return false;
    }
    return r == n;
  }

  Stripe stripe;
  Oracle oracle;
  pc::util::Xoshiro256 rng;
  std::uint64_t calls = 0;
  std::vector<Req> reqs;
  bool results[kCallKeys] = {};
  std::vector<Key> keys;
  std::vector<MixedMap::ReadOutcome> outs;
  Key scan_lo = 0;
  std::vector<std::pair<Key, Key>> rows;
  Progress* progress = nullptr;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void mixed_step(MixedMap::Session& sess, MixedClient& c, Tracer* tr,
                ThreadPhase* ph) {
  const SpanScope root(tr, kSpanCall);
  const MixedClient::Call call = c.next();
  bool ok = true;
  std::uint64_t keys = kCallKeys;
  CallKind kind = kCallBatch;
  const std::uint64_t c0 = ph != nullptr ? thread_cpu_ns() : 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t t1 = 0;
  std::uint64_t c1 = 0;
  auto stop_clocks = [&] {
    t1 = now_ns();
    c1 = ph != nullptr ? thread_cpu_ns() : 0;
  };
  try {
    switch (call) {
      case MixedClient::Call::kBatch: {
        {
          const SpanScope s(tr, kSpanSessionBatch);
          sess.execute_batch(c.reqs, std::span<bool>(c.results, kCallKeys));
        }
        stop_clocks();
        ok = c.check_batch();
        break;
      }
      case MixedClient::Call::kMultiGet: {
        kind = kCallMultiGet;
        {
          const SpanScope s(tr, kSpanSessionMultiGet);
          sess.multi_get(c.keys, c.outs);
        }
        stop_clocks();
        ok = c.check_multi_get();
        break;
      }
      case MixedClient::Call::kScan: {
        kind = kCallScan;
        c.rows.clear();
        std::size_t n = 0;
        {
          const SpanScope s(tr, kSpanSessionScan);
          n = sess.scan(c.scan_lo, kMixedKeyspace, kScanLimit, c.rows);
        }
        stop_clocks();
        keys = n;
        ok = c.check_scan(n);
        break;
      }
    }
  } catch (const std::exception&) {
    ok = false;
    stop_clocks();
  }
  ++c.attempted;
  if (!ok) ++c.failed;
  if (ph != nullptr) {
    ph->time_call(kind, t0, t1, c1 - c0);
    ph->keys += keys;
    if (!ok) ++ph->failed;
  }
}

/// SeqTreap replay of client 0's call stream: a batch as 64 point writes,
/// a multi_get as 64 finds; scans have no SeqTreap counterpart and are
/// skipped.
double seq_mixed(std::uint64_t seed, double seconds) {
  SeqTreap treap;
  for (const auto& [k, v] : even_items(kMixedKeyspace)) treap.insert(k, v);
  MixedClient c(0, seed);
  std::uint64_t ops = 0;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t t = t0;
  while (t < deadline) {
    for (int i = 0; i < 64; ++i) {
      switch (c.next()) {
        case MixedClient::Call::kBatch:
          for (const auto& r : c.reqs) {
            if (r.kind == MixedClient::Kind::kInsert) {
              treap.insert(r.key, r.key);
            } else {
              treap.erase(r.key);
            }
          }
          ops += kCallKeys;
          break;
        case MixedClient::Call::kMultiGet:
          for (const Key k : c.keys) sink += treap.find(k) != nullptr;
          ops += kCallKeys;
          break;
        case MixedClient::Call::kScan:
          break;
      }
    }
    t = now_ns();
  }
  g_sink = sink;
  return static_cast<double>(ops) / (static_cast<double>(t - t0) / 1e9);
}

}  // namespace

int run_store_mixed(const Args& a) {
  constexpr double kSeqShare = 0.2;
  const Plan plan = Plan::for_args(a, kSeqShare);
  RunData d;
  d.workload = a.workload;
  d.write_kind = kCallBatch;
  if (a.trace) {
    for (std::size_t i = 0; i < kMixedClients; ++i) {
      d.tracers.push_back(std::make_unique<Tracer>(i, kTraceSpansPerThread));
    }
  }
  std::unique_ptr<MixedFixture> fx =
      repeated_set_up<MixedFixture>(a, d, [] { return set_up_mixed(); });
  std::vector<std::unique_ptr<MixedClient>> cs;
  for (std::size_t i = 0; i < kMixedClients; ++i) {
    cs.push_back(std::make_unique<MixedClient>(i, a.seed));
  }
  prepare_clients(d, kMixedClients, plan);
  d.initial_keys = static_cast<std::size_t>(kMixedKeyspace / 2);  // even keys
  for (std::size_t i = 0; i < kMixedClients; ++i) {
    cs[i]->progress = &d.progress[i];
  }
  d.t0_ns = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kMixedClients; ++i) {
    threads.emplace_back([&, i] {
      MixedMap::Session sess(*fx->map, fx->caches.take());
      Tracer* tracer = a.trace ? d.tracers[i].get() : nullptr;
      run_thread(
          fx->gate, d.clients[i], plan.traced, tracer,
          [&](Tracer* tr, ThreadPhase* ph) {
            mixed_step(sess, *cs[i], tr, ph);
          },
          [&] { return CoreCounters::of(sess.stats()); });
    });
  }
  auto sample = [&] {
    GlobalSnap g;
    g.t_ns = now_ns();
    g.cpu_ns = process_cpu_ns();
    fx->caches.add_to(g);
    for (std::size_t s = 0; s < kMixedShards; ++s) {
      add_reclaimer(g, fx->map->shard(s).reclaimer());
    }
    return g;
  };
  drive_phases(fx->gate, plan, sample, d);
  for (std::thread& t : threads) t.join();
  d.end = sample();

  std::vector<const Oracle*> oracles;
  std::vector<Stripe> stripes;
  for (const auto& c : cs) {
    d.attempted += c->attempted;
    d.failed += c->failed;
    oracles.push_back(&c->oracle);
    stripes.push_back(c->stripe);
  }
  {
    MixedMap::Session sess(*fx->map, fx->caches.take());
    const std::uint64_t bad = audit(sess, oracles, stripes, d.resident_keys);
    if (bad != 0) {
      d.failed += bad;
      d.notes.push_back(fmt("audit: %llu keys disagree with the oracles",
                            static_cast<unsigned long long>(bad)));
    }
  }
  if (a.trace) {
    d.seq_ops_per_s = seq_mixed(a.seed, a.seconds * kSeqShare);
    d.seq_note = "SeqTreap, 1 thread, client 0's key stream as point ops";
  }
  return finish(a, d);
}

}  // namespace perfbench
