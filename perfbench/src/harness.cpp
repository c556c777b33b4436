#include "harness.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

namespace {
std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

// ----------------------------------------------------------- histogram

namespace {
constexpr std::size_t kHalf = std::size_t{1} << (Histogram::kSubBits - 1);
constexpr std::size_t kExact = std::size_t{1} << Histogram::kSubBits;
constexpr std::size_t kBuckets = kExact + Histogram::kMaxShift * kHalf;
}  // namespace

Histogram::Histogram() : buckets_(kBuckets, 0) {}

std::size_t Histogram::index_of(std::uint64_t v) {
  if (v < kExact) return static_cast<std::size_t>(v);
  const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - kSubBits;
  if (shift > kMaxShift) return kBuckets - 1;
  const std::uint64_t sub = v >> shift;  // in [kHalf, kExact)
  return kExact + (shift - 1) * kHalf + static_cast<std::size_t>(sub - kHalf);
}

void Histogram::bucket_range(std::size_t idx, double& lo, double& width) {
  if (idx < kExact) {
    lo = static_cast<double>(idx);
    width = 1.0;
    return;
  }
  const std::size_t shift = (idx - kExact) / kHalf + 1;
  const std::size_t sub = (idx - kExact) % kHalf + kHalf;
  lo = std::ldexp(static_cast<double>(sub), static_cast<int>(shift));
  width = std::ldexp(1.0, static_cast<int>(shift));
}

void Histogram::record(std::uint64_t ns) {
  ++buckets_[index_of(ns)];
  ++count_;
  sum_ns_ += ns;
}

void Histogram::merge(const Histogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
  sum_ns_ += o.sum_ns_;
}

double Histogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  // 0-based fractional rank; the bucket holding it is interpolated as if
  // its samples were spread evenly across the bucket's width.
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(before + c)) {
      double lo = 0.0, width = 0.0;
      bucket_range(i, lo, width);
      const double within =
          (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
      return (lo + width * within) / 1000.0;
    }
    before += c;
  }
  return 0.0;
}

// -------------------------------------------------------------- tracer

const char* span_name(Span s) {
  switch (s) {
    case kSpanCall: return "bench.call";
    case kSpanAtomUpdate: return "core.Atom::update";
    case kSpanTreapOp: return "persist.Treap::insert/erase";
    case kSpanSessionBatch: return "store.Session::execute_batch";
    case kSpanSessionMultiGet: return "store.Session::multi_get";
    case kSpanSessionScan: return "store.Session::scan";
    case kSpanKinds: break;
  }
  return "?";
}

const char* span_layer(Span s) {
  switch (s) {
    case kSpanCall: return "bench";
    case kSpanAtomUpdate: return "core";
    case kSpanTreapOp: return "persist";
    case kSpanKinds: return "?";
    default: return "store";
  }
}

Tracer::Tracer(std::uint32_t tid, std::size_t capacity) : tid_(tid) {
  kept_.reserve(capacity);
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::uint64_t t0_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const Tracer* t : tracers) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"client %u\"}}",
                 first ? "" : ",\n", t->tid(), t->tid());
    first = false;
    for (const Tracer::Kept& s : t->kept()) {
      // Span ids are per thread; prefixing the thread id makes them
      // unique across the file.
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":\"%u.%u\",\"parent\":\"%s\"}}",
                   span_name(s.kind), span_layer(s.kind), t->tid(),
                   static_cast<double>(s.start - t0_ns) / 1000.0,
                   static_cast<double>(s.end - s.start) / 1000.0, t->tid(),
                   s.id,
                   s.parent == 0
                       ? ""
                       : (std::to_string(t->tid()) + "." +
                          std::to_string(s.parent))
                             .c_str());
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------- phases

const char* call_metric_prefix(CallKind k) {
  switch (k) {
    case kCallWrite: return "write";
    case kCallBatch: return "batch";
    case kCallMultiGet: return "multi_get";
    case kCallScan: return "scan";
    case kCallKinds: break;
  }
  return "?";
}

void ThreadPhase::time_call(CallKind k, std::uint64_t t0, std::uint64_t t1,
                            std::uint64_t cpu_ns) {
  if (wall.empty()) {
    wall.resize(kCallKinds);
    cpu.resize(kCallKinds);
  }
  wall[k].record(t1 - t0);
  cpu[k].record(cpu_ns);
  ++calls;
}

CoreCounters CoreCounters::of(const pathcopy::core::OpStats& s) {
  CoreCounters c;
#define X(f) c.f = s.f;
  PERFBENCH_CORE_FIELDS(X)
#undef X
  return c;
}

CoreCounters& CoreCounters::operator+=(const CoreCounters& o) {
#define X(f) f += o.f;
  PERFBENCH_CORE_FIELDS(X)
#undef X
  return *this;
}

CoreCounters CoreCounters::operator-(const CoreCounters& o) const {
  CoreCounters r;
#define X(f) r.f = f - o.f;
  PERFBENCH_CORE_FIELDS(X)
#undef X
  return r;
}

// ------------------------------------------------------ global counters

void CacheRegistry::reserve(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    caches_.push_back(std::make_unique<pathcopy::alloc::ThreadCache>(*pool_));
  }
}

pathcopy::alloc::ThreadCache& CacheRegistry::take() {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  PC_ASSERT(i < caches_.size(), "CacheRegistry: more takers than reserved");
  return *caches_[i];
}

void CacheRegistry::add_to(GlobalSnap& g) const {
  for (const auto& c : caches_) {
    const pathcopy::alloc::AllocStats& s = c->stats();
    g.allocs += s.allocs.load(std::memory_order_relaxed);
    g.frees += s.frees.load(std::memory_order_relaxed);
    g.live_bytes += s.live_bytes();
    g.recycled += s.recycled.load(std::memory_order_relaxed);
  }
  // The pool's own counters cover what bypasses the magazines: oversize
  // blocks and the reclaimers' cross-thread free_batch path.
  const pathcopy::alloc::AllocStats& p = pool_->stats();
  g.allocs += p.allocs.load(std::memory_order_relaxed);
  g.frees += p.frees.load(std::memory_order_relaxed);
  g.live_bytes += p.live_bytes();
  g.pool_locks = pool_->lock_acquisitions();
}

void add_reclaimer(GlobalSnap& g, const pathcopy::reclaim::EpochReclaimer& r) {
  g.freed += r.freed_nodes();
  g.pending += r.pending_nodes();
  g.advances += r.epoch_advances();
}

// -------------------------------------------------------------- report

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

void print_report(const Report& r) {
  for (const std::string& l : r.lines) std::printf("%s\n", l.c_str());
  std::printf("%s metrics (%s run):\n", r.workload.c_str(),
              r.trace ? "traced, per-layer" : "untraced, end-to-end");
  for (const Metric& m : r.metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // %.17g: every digit as measured (a finite double round-trips).
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Plan Plan::for_args(const Args& a, double seq_share) {
  Plan p;
  p.warmup_s = std::min(1.0, 0.1 * a.seconds);
  if (!a.trace) {
    p.phase_s = {a.seconds};
    p.traced = {false};
  } else {
    const double each = a.seconds * (1.0 - seq_share) / 2.0;
    p.phase_s = {each, each};
    p.traced = {false, true};
  }
  return p;
}

void prepare_clients(RunData& d, std::size_t clients, const Plan& plan) {
  d.clients.assign(clients, std::vector<ThreadPhase>(plan.phase_s.size()));
  d.progress = std::make_unique<Progress[]>(clients);
}

double resident_now(const RunData& d) {
  std::int64_t n = static_cast<std::int64_t>(d.initial_keys);
  for (std::size_t i = 0; i < d.clients.size(); ++i) {
    n += d.progress[i].net.load(std::memory_order_relaxed);
  }
  return static_cast<double>(n);
}

std::string host_placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  return fmt("unpinned threads over %d allowed cpus (hw_threads %u)",
             CPU_COUNT(&set), std::thread::hardware_concurrency());
}

}  // namespace perfbench
