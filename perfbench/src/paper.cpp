// paper_batch: the paper's §4.1 Batch workload on
// Atom<Treap, EpochReclaimer, ThreadCache>, with the key material of
// bench_table* (src/bench_util/workloads.hpp) at 2^20 keys and three client
// threads.
#include <algorithm>
#include <thread>

#include "bench_util/workloads.hpp"
#include "core/atom.hpp"
#include "persist/treap.hpp"
#include "seq/seq_treap.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace pc = pathcopy;
using T = pc::persist::Treap<std::int64_t, std::int64_t>;
using Smr = pc::reclaim::EpochReclaimer;
using Uc = pc::core::Atom<T, Smr, pc::alloc::ThreadCache>;

constexpr std::size_t kClients = 3;
constexpr std::size_t kInitial = std::size_t{1} << 20;
constexpr std::size_t kKeysPerClient = 16384;

/// Declaration order is teardown order reversed: the atom frees its final
/// version, the reclaimer drains, the caches flush, then the pool dies.
struct Fixture {
  pc::alloc::PoolBackend pool;
  CacheRegistry caches{pool};
  Smr smr;
  Uc atom{smr, pool};
  pc::bench::BatchKeys batch;
  std::size_t initial_size = 0;
};

std::unique_ptr<Fixture> set_up(std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  fx->caches.reserve(2 + kClients);  // set-up, clients, final size
  fx->batch =
      pc::bench::make_batch_keys(kInitial, kClients, kKeysPerClient, seed);
  std::vector<std::int64_t> sorted = fx->batch.initial;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  items.reserve(sorted.size());
  for (const std::int64_t k : sorted) items.emplace_back(k, k);
  {
    Uc::Ctx ctx(fx->smr, fx->caches.take());
    fx->atom.seed_sorted(ctx, items.begin(), items.end());
  }
  fx->initial_size = items.size();
  return fx;
}

/// One client's state: it walks its own keys, "insert all, then erase
/// all".
struct Client {
  const std::vector<std::int64_t>* mine = nullptr;
  std::size_t pos = 0;
  bool inserting = true;
  std::int64_t outstanding = 0;  // my keys currently inserted
  Progress* progress = nullptr;  // publishes outstanding per call
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One timed Atom::update; the structure call inside the lambda is the
/// persist span, the update the core span. Returns whether it installed;
/// `threw` reports a call that ended in an exception.
bool update(Uc& atom, Uc::Ctx& ctx, Tracer* tr, bool insert, std::int64_t k,
            ThreadPhase* ph, bool& threw) {
  const std::uint64_t c0 = ph != nullptr ? thread_cpu_ns() : 0;
  const std::uint64_t t0 = now_ns();
  bool installed = false;
  try {
    const SpanScope core(tr, kSpanAtomUpdate);
    installed = (insert ? atom.update(ctx,
                                      [&](T t, auto& b) {
                                        const SpanScope s(tr, kSpanTreapOp);
                                        return t.insert(b, k, k);
                                      })
                        : atom.update(ctx, [&](T t, auto& b) {
                            const SpanScope s(tr, kSpanTreapOp);
                            return t.erase(b, k);
                          })) == pc::core::UpdateResult::kInstalled;
  } catch (const std::exception&) {
    threw = true;
  }
  if (ph != nullptr) {
    const std::uint64_t t1 = now_ns();
    ph->time_call(kCallWrite, t0, t1, thread_cpu_ns() - c0);
    ph->keys += 1;
  }
  return installed;
}

void batch_step(Uc& atom, Uc::Ctx& ctx, Client& c, Tracer* tr,
                ThreadPhase* ph) {
  const SpanScope root(tr, kSpanCall);
  const std::int64_t k = (*c.mine)[c.pos];
  bool threw = false;
  const bool ok = update(atom, ctx, tr, c.inserting, k, ph, threw);
  ++c.attempted;
  // Batch oracle: the keys are disjoint and private, so every op lands.
  if (!ok) {
    ++c.failed;
    if (ph != nullptr) ++ph->failed;
  } else {
    c.outstanding += c.inserting ? 1 : -1;
    c.progress->set_net(c.outstanding);
  }
  if (++c.pos == c.mine->size()) {
    c.pos = 0;
    c.inserting = !c.inserting;
  }
}

/// The sequential baseline on the same key material: SeqTreap, one
/// thread, plain new/delete (bench/common.cpp's "Seq Treap"), looping over
/// the first client's keys.
double seq_ops_per_s(const Fixture& fx, double seconds) {
  pc::seq::SeqTreap<std::int64_t, std::int64_t> treap;
  for (const std::int64_t k : fx.batch.initial) treap.insert(k, k);
  const std::vector<std::int64_t>& mine = fx.batch.per_thread[0];
  std::uint64_t ops = 0;
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t t = t0;
  while (t < deadline) {
    for (const std::int64_t k : mine) treap.insert(k, k);
    for (const std::int64_t k : mine) treap.erase(k);
    ops += 2 * mine.size();
    t = now_ns();
  }
  return static_cast<double>(ops) / (static_cast<double>(t - t0) / 1e9);
}

}  // namespace

int run_paper_batch(const Args& a) {
  constexpr double kSeqShare = 0.2;
  RunData d;
  d.workload = a.workload;
  std::unique_ptr<Fixture> fx =
      repeated_set_up<Fixture>(a, d, [&] { return set_up(a.seed); });
  d.notes.push_back(fmt("%zu initial keys, %zu clients, 16384 private keys "
                        "each",
                        fx->initial_size, kClients));

  const Plan plan = Plan::for_args(a, kSeqShare);
  Gate gate;
  std::vector<Client> clients(kClients);
  prepare_clients(d, kClients, plan);
  d.initial_keys = fx->initial_size;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients[i].mine = &fx->batch.per_thread[i];
    clients[i].progress = &d.progress[i];
    if (a.trace) {
      d.tracers.push_back(std::make_unique<Tracer>(i, kTraceSpansPerThread));
    }
  }
  d.t0_ns = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Uc::Ctx ctx(fx->smr, fx->caches.take());
      Client& c = clients[i];
      Tracer* tracer = a.trace ? d.tracers[i].get() : nullptr;
      run_thread(
          gate, d.clients[i], plan.traced, tracer,
          [&](Tracer* tr, ThreadPhase* ph) {
            batch_step(fx->atom, ctx, c, tr, ph);
          },
          [&] { return CoreCounters::of(ctx.stats); });
    });
  }
  auto sample = [&] {
    GlobalSnap g;
    g.t_ns = now_ns();
    g.cpu_ns = process_cpu_ns();
    fx->caches.add_to(g);
    add_reclaimer(g, fx->smr);
    return g;
  };
  drive_phases(gate, plan, sample, d);
  for (std::thread& t : threads) t.join();
  d.end = sample();

  std::size_t final_size = 0;
  {
    Uc::Ctx ctx(fx->smr, fx->caches.take());
    final_size = fx->atom.size(ctx);
  }
  d.resident_keys = final_size;
  std::int64_t expected = static_cast<std::int64_t>(fx->initial_size);
  for (const Client& c : clients) {
    d.attempted += c.attempted;
    d.failed += c.failed;
    expected += c.outstanding;
  }
  // Final-size oracle: the clients' outstanding private keys must account
  // for every change in size.
  if (static_cast<std::int64_t>(final_size) != expected) {
    const std::int64_t diff = static_cast<std::int64_t>(final_size) - expected;
    d.failed += static_cast<std::uint64_t>(diff < 0 ? -diff : diff);
    d.notes.push_back(fmt("oracle: final size %zu, expected %lld", final_size,
                          static_cast<long long>(expected)));
  }

  if (a.trace) {
    d.seq_ops_per_s = seq_ops_per_s(*fx, a.seconds * kSeqShare);
    d.seq_note = "SeqTreap, 1 thread, same key material";
    // Published UC speedup at the nearest process count to our three
    // clients (Xeon 5220, 4 processes; bench_table_xeon5220).
    d.paper_note = " (paper, Xeon 5220 at 4p: 1.23x)";
  }
  return finish(a, d);
}

}  // namespace perfbench
