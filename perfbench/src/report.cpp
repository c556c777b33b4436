// Turns a finished run into metrics: the end-to-end set (untraced runs)
// or the ledger plus per-layer set (traced runs). Metric names, units and
// the layer -> metric -> workload map are documented in README.md.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

#include "harness.hpp"

namespace perfbench {
namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

std::vector<ThreadPhase*> phase_of(RunData& d, std::size_t i) {
  std::vector<ThreadPhase*> out;
  for (auto& c : d.clients) out.push_back(&c[i]);
  return out;
}

struct PhaseTotals {
  double seconds = 0.0;
  double cpu_s = 0.0;  // process CPU time
  std::uint64_t calls = 0;
  std::uint64_t keys = 0;
  CoreCounters core;  // clients' OpStats deltas
  double ops_per_s() const { return ratio(static_cast<double>(keys), seconds); }
  double cpu_us_per_key() const {
    return ratio(cpu_s * 1e6, static_cast<double>(keys));
  }
};

PhaseTotals totals(RunData& d, std::size_t i) {
  PhaseTotals t;
  t.seconds = static_cast<double>(d.snaps[i + 1].t_ns - d.snaps[i].t_ns) / 1e9;
  t.cpu_s =
      static_cast<double>(d.snaps[i + 1].cpu_ns - d.snaps[i].cpu_ns) / 1e9;
  for (ThreadPhase* p : phase_of(d, i)) {
    t.calls += p->calls;
    t.keys += p->keys;
    t.core += p->core;
  }
  return t;
}

double cpu_share(const std::vector<ThreadPhase*>& phases) {
  std::uint64_t cpu = 0, wall = 0;
  for (const ThreadPhase* p : phases) {
    cpu += p->cpu_ns;
    wall += p->wall_ns;
  }
  return ratio(cpu, wall);
}

/// Every client's histogram of one call kind, by wall or CPU time.
Histogram merged(const std::vector<ThreadPhase*>& phases, CallKind k,
                 bool cpu) {
  Histogram h;
  for (const ThreadPhase* p : phases) {
    const std::vector<Histogram>& v = cpu ? p->cpu : p->wall;
    if (!v.empty()) h.merge(v[k]);
  }
  return h;
}

/// p99 is reported only with >= 10 samples beyond it.
constexpr std::uint64_t kP99Samples = 1000;

/// p50 and p99 of every call kind with samples, over the whole phase, in
/// wall time and in the calling thread's CPU time.
void describe_latencies(Report& r, const std::vector<ThreadPhase*>& phases) {
  for (unsigned k = 0; k < kCallKinds; ++k) {
    const auto kind = static_cast<CallKind>(k);
    for (const bool cpu : {false, true}) {
      const Histogram h = merged(phases, kind, cpu);
      if (h.count() == 0) continue;
      const std::string name =
          fmt("%s%s", call_metric_prefix(kind), cpu ? "_cpu" : "");
      const auto n = static_cast<unsigned long long>(h.count());
      if (h.count() >= kP99Samples) {
        r.line(fmt("  %s_p50_us = %.4f us   %s_p99_us = %.4f us   (n = %llu)",
                   name.c_str(), h.quantile_us(0.5), name.c_str(),
                   h.quantile_us(0.99), n));
      } else {
        r.line(fmt("  %s_p50_us = %.4f us   (n = %llu; p99 needs >= %llu)",
                   name.c_str(), h.quantile_us(0.5), n,
                   static_cast<unsigned long long>(kP99Samples)));
      }
    }
  }
}

struct LedgerShares {
  double bench = 0, core = 0, persist = 0, store = 0, residual = 0;
  double call_us = 0;  // traced client wall time per call
};

/// Self time per client call of every span kind, plus the residual
/// (client wall time outside any span). Root spans cover their children,
/// so the self times plus the residual add up to client wall time.
LedgerShares ledger(Report& r, const std::vector<ThreadPhase*>& clients) {
  std::array<SpanAgg, kSpanKinds> agg{};
  std::uint64_t wall = 0;
  std::uint64_t calls = 0;
  for (const ThreadPhase* p : clients) {
    wall += p->wall_ns;
    calls += p->calls;
    for (unsigned k = 0; k < kSpanKinds; ++k) {
      agg[k].count += p->spans[k].count;
      agg[k].self_ns += p->spans[k].self_ns;
    }
  }
  LedgerShares s;
  if (wall == 0 || calls == 0) return s;
  const double per_call = 1.0 / (static_cast<double>(calls) * 1000.0);
  s.call_us = static_cast<double>(wall) * per_call;
  r.line("ledger (traced phase; self time per client call, share of client "
         "wall time):");
  r.line(fmt("  %-30s %-8s %13s %8s", "span", "layer", "self us/call",
             "share"));
  std::uint64_t covered = 0;
  for (unsigned k = 0; k < kSpanKinds; ++k) {
    if (agg[k].count == 0) continue;
    const auto kind = static_cast<Span>(k);
    const double share =
        static_cast<double>(agg[k].self_ns) / static_cast<double>(wall);
    r.line(fmt("  %-30s %-8s %13.4f %8.4f", span_name(kind), span_layer(kind),
               static_cast<double>(agg[k].self_ns) * per_call, share));
    covered += agg[k].self_ns;
    const std::string layer = span_layer(kind);
    if (layer == "bench") s.bench += share;
    if (layer == "core") s.core += share;
    if (layer == "persist") s.persist += share;
    if (layer == "store") s.store += share;
  }
  const std::uint64_t residual = wall > covered ? wall - covered : 0;
  s.residual = static_cast<double>(residual) / static_cast<double>(wall);
  r.line(fmt("  %-30s %-8s %13.4f %8.4f", "(residual, outside any span)", "-",
             static_cast<double>(residual) * per_call, s.residual));
  r.line(fmt("  %-30s %-8s %13.4f %8.4f", "total = client wall time", "-",
             s.call_us, s.bench + s.core + s.persist + s.store + s.residual));
  r.line("  by layer (self us/call):");
  for (const auto& [layer, share] :
       {std::pair{"bench", s.bench}, std::pair{"core", s.core},
        std::pair{"persist", s.persist}, std::pair{"store", s.store},
        std::pair{"residual", s.residual}}) {
    r.line(fmt("    %-8s %13.4f %8.4f", layer, share * s.call_us, share));
  }
  return s;
}

bool write_trace(const Args& a, RunData& d, Report& r) {
  const std::string out = kTraceDir;
  for (std::size_t i = 0; i <= out.size(); ++i) {
    if (i == out.size() || out[i] == '/') mkdir(out.substr(0, i).c_str(), 0755);
  }
  const std::string path = fmt("%s/trace_%s_seed%llu.json", kTraceDir,
                               a.workload.c_str(),
                               static_cast<unsigned long long>(a.seed));
  std::vector<const Tracer*> ts;
  std::uint64_t kept = 0, dropped = 0;
  for (const auto& t : d.tracers) {
    ts.push_back(t.get());
    kept += t->kept().size();
    dropped += t->dropped();
  }
  const bool ok = write_chrome_trace(path, ts, d.t0_ns);
  r.line(fmt("trace: %s (%llu spans kept, %llu beyond the buffers counted "
             "in the ledger only)%s",
             path.c_str(), static_cast<unsigned long long>(kept),
             static_cast<unsigned long long>(dropped),
             ok ? "" : "  WRITE FAILED"));
  return ok;
}

void end_to_end(RunData& d, Report& r) {
  const PhaseTotals t = totals(d, 0);
  const std::vector<ThreadPhase*> ph = phase_of(d, 0);
  r.line(fmt("timed phase: %.3f s, %llu calls, %llu keys, %.1f keys/s; "
             "process cpu %.3f s (%.4f cpus busy)",
             t.seconds, static_cast<unsigned long long>(t.calls),
             static_cast<unsigned long long>(t.keys), t.ops_per_s(), t.cpu_s,
             ratio(t.cpu_s, t.seconds)));
  describe_latencies(r, ph);
  r.line(fmt("  client cpu share = %.4f (thread cpu time over wall time)",
             cpu_share(ph)));
  // The write call's CPU time: every part of it runs on the client thread.
  const Histogram w = merged(ph, d.write_kind, true);
  const double write_p50 = w.quantile_us(0.50);
  const double write_p99 = w.quantile_us(0.99);
  if (d.write_kind != kCallWrite) {
    r.line(fmt("  write_cpu_p50_us and write_cpu_p99_us are %s_cpu_p50_us "
               "and %s_cpu_p99_us",
               call_metric_prefix(d.write_kind),
               call_metric_prefix(d.write_kind)));
  }
  if (w.count() < kP99Samples) {
    r.line(fmt("error: fewer than %llu write calls; write_cpu_p99_us is not "
               "reportable",
               static_cast<unsigned long long>(kP99Samples)));
    r.correct = false;
  }
  // The median window: live bytes, retire backlog included, over resident
  // keys, so a reclaim change that keeps more garbage around typically
  // shows, while one descheduled thread holding back the epoch for a
  // moment does not. The floor (backlog drained) is printed beside it.
  const std::vector<double>& fp = d.window_bytes_per_key[0];
  const double bytes_per_key = median(fp);
  r.line(fmt("  bytes_per_key = %.4f B (median window of live bytes, retire "
             "backlog included, / resident keys; lowest %.4f, max %.4f; "
             "after the run %llu B / %zu keys)",
             bytes_per_key, *std::min_element(fp.begin(), fp.end()),
             *std::max_element(fp.begin(), fp.end()),
             static_cast<unsigned long long>(d.end.live_bytes),
             d.resident_keys));
  r.line(fmt("  failed_op_share = %.6g (%llu of %llu calls)",
             ratio(d.failed, d.attempted),
             static_cast<unsigned long long>(d.failed),
             static_cast<unsigned long long>(d.attempted)));
  r.metric("setup_s", "s", median(d.setup_s));
  r.metric("cpu_us_per_key", "us", t.cpu_us_per_key());
  r.metric("write_cpu_p50_us", "us", write_p50);
  r.metric("write_cpu_p99_us", "us", write_p99);
  r.metric("bytes_per_key", "B", bytes_per_key);
}

void per_layer(const Args& a, RunData& d, Report& r) {
  const PhaseTotals ta = totals(d, 0);  // untraced
  const PhaseTotals tb = totals(d, 1);  // traced
  const std::vector<ThreadPhase*> pa = phase_of(d, 0);
  r.line(fmt("untraced phase: %.3f s, %.1f keys/s, %.4f cpu us/key; "
             "traced phase: %.3f s, %.1f keys/s, %.4f cpu us/key",
             ta.seconds, ta.ops_per_s(), ta.cpu_us_per_key(), tb.seconds,
             tb.ops_per_s(), tb.cpu_us_per_key()));
  describe_latencies(r, pa);
  const LedgerShares ls = ledger(r, phase_of(d, 1));
  if (!write_trace(a, d, r)) r.correct = false;

  // Counters come from the untraced phase.
  const double keys = static_cast<double>(ta.keys);
  const CoreCounters& c = ta.core;
  const GlobalSnap& g0 = d.snaps[0];
  const GlobalSnap& g1 = d.snaps[1];

  r.metric("trace.overhead_share", "share",
           1.0 - ratio(ta.cpu_us_per_key(), tb.cpu_us_per_key()));
  r.metric("trace.call_us", "us", ls.call_us);
  r.metric("client.cpu_share", "share", cpu_share(pa));
  r.metric("ledger.bench_share", "share", ls.bench);
  r.metric("ledger.residual_share", "share", ls.residual);

  r.metric("persist.copy_share", "share", ls.persist);
  r.metric("persist.probe_nodes_per_key", "count",
           ratio(c.probe_nodes_visited, c.batched_reads));
  r.metric("persist.probe_nodes_saved_share", "share",
           ratio(c.probe_nodes_saved,
                 c.probe_nodes_visited + c.probe_nodes_saved));

  r.metric("core.update_self_share", "share", ls.core);
  r.metric("core.attempts_per_update", "count",
           ratio(c.attempts,
                 c.updates + c.noop_updates + c.helped_completions));
  r.metric("core.batched_share", "share",
           ratio(c.batched_ops, c.combined_ops));
  r.metric("core.mean_batch", "count",
           ratio(c.batched_ops, c.batched_installs));

  r.metric("alloc.nodes_per_op", "count",
           ratio(static_cast<double>(g1.allocs - g0.allocs), keys));
  r.metric("alloc.backend_trips_per_op", "count",
           ratio(static_cast<double>(g1.pool_locks - g0.pool_locks), keys));
  r.metric("alloc.recycled_share", "share",
           ratio(g1.recycled - g0.recycled, g1.frees - g0.frees));
  r.metric("alloc.retry_recycle_share", "share",
           ratio(c.recycled_nodes, c.failed_attempt_nodes));

  r.metric("reclaim.freed_per_op", "count",
           ratio(static_cast<double>(g1.freed - g0.freed), keys));
  r.metric("reclaim.pending_nodes", "count", static_cast<double>(g1.pending));
  r.metric("reclaim.epoch_advances_per_s", "1/s",
           ratio(static_cast<double>(g1.advances - g0.advances), ta.seconds));

  r.metric("ledger.store_share", "share", ls.store);
  r.metric("store.cut.retries_per_cut", "count",
           ratio(c.cut_retries, merged(pa, kCallScan, false).count()));

  const double speedup = ratio(ta.ops_per_s(), d.seq_ops_per_s);
  r.line(fmt("  seq: %.1f ops/s (%s); speedup %.4fx%s", d.seq_ops_per_s,
             d.seq_note.c_str(), speedup, d.paper_note.c_str()));
  r.metric("seq.ops_per_s", "1/s", d.seq_ops_per_s);
  r.metric("seq.speedup", "x", speedup);
}

}  // namespace

int finish(const Args& a, RunData& d) {
  Report r;
  r.workload = d.workload;
  r.trace = a.trace;
  r.attempted = d.attempted;
  r.failed = d.failed;
  r.line(fmt("perfbench %s seed %llu, %.3g s, trace %d; %s",
             d.workload.c_str(), static_cast<unsigned long long>(a.seed),
             a.seconds, a.trace ? 1 : 0, host_placement().c_str()));
  r.line(fmt("setup repetitions: %zu, min %.4f s, median %.4f s, max %.4f s",
             d.setup_s.size(), quantile(d.setup_s, 0.0), median(d.setup_s),
             quantile(d.setup_s, 1.0)));
  for (const std::string& n : d.notes) r.line(n);
  if (a.trace) {
    per_layer(a, d, r);
  } else {
    end_to_end(d, r);
  }
  if (d.failed != 0 || d.attempted == 0) r.correct = false;
  print_report(r);
  return r.correct ? 0 : 1;
}

}  // namespace perfbench
