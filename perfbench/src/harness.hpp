// Shared machinery of the repo benchmark: latency histograms, the span
// tracer behind the traced run, the phase gate that walks every thread
// through warm-up -> measured phases, counter snapshots, and the report
// (human-readable lines followed by one JSON result line).
//
// Nothing here reaches inside src/: every span wraps a public call, and
// every counter is one the library already exposes (OpStats, AllocStats,
// PoolBackend::lock_acquisitions, EpochReclaimer counters).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "core/stats.hpp"
#include "reclaim/epoch.hpp"

namespace perfbench {

/// CPU time of the calling thread, and of every thread of the process.
/// With paravirtual steal accounting the kernel leaves out time a vCPU was
/// stolen by the hypervisor, so on a shared VM these clocks count the work
/// done, not the host's load.
std::uint64_t thread_cpu_ns();
std::uint64_t process_cpu_ns();

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required: run.py passes BENCHMARK.json's run_seconds
  bool trace = false;
};

/// Where traced runs write their Chrome trace, relative to the checkout.
inline constexpr const char* kTraceDir = ".bench_build/out";

// ----------------------------------------------------------- histogram

/// Log-linear time histogram in nanoseconds (HdrHistogram layout):
/// exact below 2^kSubBits ns, then 2^(kSubBits-1) sub-buckets per power
/// of two, so every bucket is narrower than 0.1% of its value. Quantiles
/// interpolate by rank inside the bucket, so a reported percentile keeps
/// all its digits instead of snapping to a bucket edge.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 11;
  static constexpr unsigned kMaxShift = 30;  // values up to ~2^41 ns

  Histogram();
  void record(std::uint64_t ns);
  void merge(const Histogram& o);
  std::uint64_t count() const { return count_; }
  double mean_us() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_ns_) /
                             (1000.0 * static_cast<double>(count_));
  }
  /// q-quantile in microseconds (q in [0, 1]); 0 when empty.
  double quantile_us(double q) const;

 private:
  static std::size_t index_of(std::uint64_t v);
  static void bucket_range(std::size_t idx, double& lo, double& width);
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

// -------------------------------------------------------------- tracer

/// Span kinds. Each belongs to one layer (the module whose public call it
/// wraps); the benchmark's own bookkeeping is layer "bench".
enum Span : std::uint8_t {
  kSpanCall,        // root: one client call, bookkeeping included
  kSpanAtomUpdate,  // core: Atom::update
  kSpanTreapOp,     // persist: Treap::insert / erase inside the lambda
  kSpanSessionBatch,     // store: Session::execute_batch
  kSpanSessionMultiGet,  // store: Session::multi_get
  kSpanSessionScan,      // store: Session::scan
  kSpanKinds
};

const char* span_name(Span s);
const char* span_layer(Span s);

struct SpanAgg {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Per-thread span recorder. Open spans form a stack; closing one charges
/// its duration to the parent's child time, so self time (duration minus
/// the part covered by children) is aggregated online for EVERY span. The
/// first `capacity` spans are also kept, preallocated, for the Chrome
/// trace dump; later ones only feed the aggregates.
class Tracer {
 public:
  Tracer(std::uint32_t tid, std::size_t capacity);

  void open(Span kind) {
    Frame& f = stack_[depth_++];
    f.kind = kind;
    f.id = next_id_++;
    f.child_ns = 0;
    f.start = now_ns();
  }

  void close() {
    const std::uint64_t end = now_ns();
    Frame& f = stack_[--depth_];
    const std::uint64_t d = end - f.start;
    SpanAgg& a = agg_[f.kind];
    a.count += 1;
    a.total_ns += d;
    a.self_ns += d - f.child_ns;
    if (d > a.max_ns) a.max_ns = d;
    std::uint32_t parent = 0;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += d;
      parent = stack_[depth_ - 1].id;
    }
    if (kept_.size() < kept_.capacity()) {
      kept_.push_back(Kept{f.start, end, f.id, parent, f.kind});
    } else {
      ++dropped_;
    }
  }

  const std::array<SpanAgg, kSpanKinds>& agg() const { return agg_; }
  std::uint32_t tid() const { return tid_; }
  std::uint64_t dropped() const { return dropped_; }

  struct Kept {
    std::uint64_t start;
    std::uint64_t end;
    std::uint32_t id;
    std::uint32_t parent;  // 0: root span
    Span kind;
  };
  const std::vector<Kept>& kept() const { return kept_; }

 private:
  struct Frame {
    std::uint64_t start;
    std::uint64_t child_ns;
    std::uint32_t id;
    Span kind;
  };
  std::uint32_t tid_;
  std::uint32_t next_id_ = 1;
  unsigned depth_ = 0;
  std::array<Frame, 8> stack_{};
  std::array<SpanAgg, kSpanKinds> agg_{};
  std::vector<Kept> kept_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null tracer (untraced phases) records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* t, Span kind) : t_(t) {
    if (t_ != nullptr) t_->open(kind);
  }
  ~SpanScope() {
    if (t_ != nullptr) t_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
};

/// Writes every thread's kept spans as Chrome trace-event JSON (open it
/// in chrome://tracing or https://ui.perfetto.dev). Returns false on I/O
/// failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::uint64_t t0_ns);

// ---------------------------------------------------------- phase gate

/// Phase sequence shared by every benchmark thread: 0 = warm-up, then
/// measured phases 1..n, then n+1 = stop. Threads poll it once per call
/// (one relaxed load), so a slow system simply completes fewer calls.
class Gate {
 public:
  int load() const { return phase_.load(std::memory_order_relaxed); }
  void set(int p) { phase_.store(p, std::memory_order_release); }

 private:
  alignas(64) std::atomic<int> phase_{0};
};

/// Call kinds a client times separately.
enum CallKind : std::uint8_t {
  kCallWrite,     // single-key insert/erase
  kCallBatch,     // execute_batch of 64 writes
  kCallMultiGet,  // multi_get of 64 keys
  kCallScan,      // scan(limit 100)
  kCallKinds
};
const char* call_metric_prefix(CallKind k);

/// The OpStats fields the report reads.
#define PERFBENCH_CORE_FIELDS(X)                                          \
  X(updates) X(noop_updates) X(attempts) X(combined_ops)                  \
  X(helped_completions) X(batched_installs) X(batched_ops)                \
  X(batched_reads) X(probe_nodes_visited) X(probe_nodes_saved)            \
  X(cut_retries) X(failed_attempt_nodes) X(recycled_nodes)

/// Those fields as a subtractable value, for per-phase deltas.
struct CoreCounters {
#define X(f) std::uint64_t f = 0;
  PERFBENCH_CORE_FIELDS(X)
#undef X

  static CoreCounters of(const pathcopy::core::OpStats& s);
  CoreCounters& operator+=(const CoreCounters& o);
  CoreCounters operator-(const CoreCounters& o) const;
};

/// One client thread's record of one measured phase.
struct ThreadPhase {
  std::uint64_t wall_ns = 0;  // this thread's time inside the phase
  std::uint64_t cpu_ns = 0;   // ... of which it was running on a cpu
  std::uint64_t calls = 0;
  std::uint64_t keys = 0;     // keys written or read (cpu_us_per_key)
  std::uint64_t failed = 0;
  std::vector<Histogram> wall;  // by CallKind; allocated on first use
  std::vector<Histogram> cpu;   // ditto, the calling thread's CPU time
  CoreCounters core;            // OpStats delta over the phase
  std::array<SpanAgg, kSpanKinds> spans{};

  /// Records a call that ran from t0 to t1 (steady clock) and took
  /// cpu_ns of this thread's CPU time.
  void time_call(CallKind k, std::uint64_t t0, std::uint64_t t1,
                 std::uint64_t cpu_ns);
};

/// One client's net change to the resident key count (successful inserts
/// minus successful erases, warm-up included), on its own cache line with
/// a single writer. The main thread reads it once per window.
struct alignas(64) Progress {
  std::atomic<std::int64_t> net{0};

  void set_net(std::int64_t n) { net.store(n, std::memory_order_relaxed); }
};

/// Drives one thread through the gate: warm-up calls unrecorded, then one
/// ThreadPhase per measured phase. `step(tracer, phase)` performs one
/// call (phase is null during warm-up); `snap()` returns the thread's
/// CoreCounters for the phase deltas. `traced[i]` selects which measured
/// phases run with the tracer.
template <class Step, class Snap>
void run_thread(const Gate& gate, std::vector<ThreadPhase>& phases,
                const std::vector<bool>& traced, Tracer* tracer, Step&& step,
                Snap&& snap) {
  while (gate.load() == 0) step(static_cast<Tracer*>(nullptr),
                                static_cast<ThreadPhase*>(nullptr));
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const int p = static_cast<int>(i) + 1;
    ThreadPhase& ph = phases[i];
    Tracer* tr = traced[i] ? tracer : nullptr;
    const std::array<SpanAgg, kSpanKinds> agg0 =
        tracer != nullptr ? tracer->agg() : std::array<SpanAgg, kSpanKinds>{};
    const CoreCounters c0 = snap();
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t t0 = now_ns();
    while (gate.load() == p) step(tr, &ph);
    ph.wall_ns = now_ns() - t0;
    ph.cpu_ns = thread_cpu_ns() - cpu0;
    ph.core = snap() - c0;
    if (tracer != nullptr) {
      for (unsigned k = 0; k < kSpanKinds; ++k) {
        ph.spans[k].count = tracer->agg()[k].count - agg0[k].count;
        ph.spans[k].total_ns = tracer->agg()[k].total_ns - agg0[k].total_ns;
        ph.spans[k].self_ns = tracer->agg()[k].self_ns - agg0[k].self_ns;
        ph.spans[k].max_ns = tracer->agg()[k].max_ns;
      }
    }
  }
}

// ------------------------------------------------------ global counters

/// Process-wide counters the main thread samples at each phase boundary:
/// the process's CPU time, every ThreadCache's AllocStats, the pool's own
/// counters, and the reclaimers' freed/pending/advance counts.
struct GlobalSnap {
  std::uint64_t t_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t allocs = 0, frees = 0, live_bytes = 0, recycled = 0,
                pool_locks = 0;
  std::uint64_t freed = 0, pending = 0, advances = 0;
};

/// Owns every ThreadCache a fixture hands out, so their counters stay
/// readable after the threads that used them exit, and every cache is
/// flushed before the pool dies (declare the registry after the pool).
class CacheRegistry {
 public:
  explicit CacheRegistry(pathcopy::alloc::PoolBackend& pool) : pool_(&pool) {}
  /// Preallocates n caches; call before any thread takes one.
  void reserve(std::size_t n);
  /// Thread-safe hand-out of the next preallocated cache.
  pathcopy::alloc::ThreadCache& take();
  void add_to(GlobalSnap& g) const;

 private:
  pathcopy::alloc::PoolBackend* pool_;
  std::vector<std::unique_ptr<pathcopy::alloc::ThreadCache>> caches_;
  std::atomic<std::size_t> next_{0};
};

void add_reclaimer(GlobalSnap& g, const pathcopy::reclaim::EpochReclaimer& r);

// -------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Everything one run measured, in the shape the report prints.
struct Report {
  std::string workload;
  bool trace = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> lines;  // human-readable, printed first
  std::vector<Metric> metrics;     // the JSON line's metrics
  void line(const std::string& s) { lines.push_back(s); }
  void metric(const std::string& name, const std::string& unit, double v) {
    metrics.push_back(Metric{name, unit, v});
  }
};

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

/// Prints the report's lines, a metric table, and the final JSON line.
void print_report(const Report& r);

/// The q-quantile of a sample (q in [0, 1]), interpolating between
/// neighbouring values; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// -------------------------------------------------- shared phase plan

/// Per-run phase plan: warm-up, then the measured phases. Untraced runs
/// measure one phase of `seconds`; traced runs measure an untraced phase
/// and a traced phase (the pair behind trace.overhead_share).
struct Plan {
  double warmup_s = 0.0;
  std::vector<double> phase_s;
  std::vector<bool> traced;
  static Plan for_args(const Args& a, double seq_share);
};

/// The footprint is sampled in windows of this length.
inline constexpr double kWindowS = 0.25;

/// Everything a workload hands to the report once its threads joined.
struct RunData {
  std::string workload;
  std::vector<std::vector<ThreadPhase>> clients;  // [client][phase]
  std::vector<GlobalSnap> snaps;     // phase boundaries (phases + 1)
  std::vector<std::vector<double>> window_bytes_per_key;  // per phase
  std::unique_ptr<Progress[]> progress;      // one per client
  std::size_t initial_keys = 0;      // resident keys after seeding
  GlobalSnap end;                    // after every thread joined
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::uint64_t t0_ns = 0;           // trace time origin
  std::vector<double> setup_s;       // process CPU s per set-up repetition
  std::size_t resident_keys = 0;     // after the run
  CallKind write_kind = kCallWrite;  // the call behind write_cpu_p50/p99
  double seq_ops_per_s = 0.0;        // traced runs only
  std::string seq_note;
  std::string paper_note;            // published table cell, if any
  std::uint64_t attempted = 0;       // every call, warm-up included
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
};

/// Sizes d.clients for the plan and gives every client a Progress counter.
void prepare_clients(RunData& d, std::size_t clients, const Plan& plan);
/// Resident keys now: the seeded keys plus every client's net change.
double resident_now(const RunData& d);

/// Walks the gate through the plan from the main thread, taking a
/// GlobalSnap at every phase boundary via `sample` (n+1 of them). In every
/// window of every phase it also records the footprint: live bytes
/// (another `sample`) over resident keys.
template <class Sample>
void drive_phases(Gate& gate, const Plan& plan, Sample&& sample, RunData& d) {
  using Clock = std::chrono::steady_clock;
  std::this_thread::sleep_for(std::chrono::duration<double>(plan.warmup_s));
  d.window_bytes_per_key.assign(plan.phase_s.size(), {});
  for (std::size_t i = 0; i < plan.phase_s.size(); ++i) {
    gate.set(static_cast<int>(i) + 1);
    d.snaps.push_back(sample());
    const auto start = Clock::now();
    const auto end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(plan.phase_s[i]));
    auto t = start;
    while (t < end) {
      t = std::min(end, t + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(kWindowS)));
      std::this_thread::sleep_until(t);
      d.window_bytes_per_key[i].push_back(
          static_cast<double>(sample().live_bytes) / resident_now(d));
    }
  }
  gate.set(static_cast<int>(plan.phase_s.size()) + 1);
  d.snaps.push_back(sample());
}

/// Turns a finished run into its report: end-to-end metrics for an
/// untraced run, the ledger and per-layer metrics for a traced one (and
/// writes the Chrome trace). Prints it and returns the exit code.
int finish(const Args& a, RunData& d);

std::string host_placement();

}  // namespace perfbench
