// The two workloads; each runs one benchmark invocation end to end and
// returns the process exit code (see README.md for what each exercises).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Spans kept per thread for the Chrome trace (the ledger counts all).
inline constexpr std::size_t kTraceSpansPerThread = std::size_t{1} << 14;

/// Builds the fixture repeatedly and keeps the last one: at least nine
/// times, and until three seconds of set-up were timed (at most 200), so
/// setup_s — the median — is steady even for millisecond set-ups. Each
/// build is timed in process CPU time, so host steal does not count. A
/// traced run reports no setup_s and builds once. Earlier fixtures are
/// torn down untimed.
template <class Fixture, class SetUp>
std::unique_ptr<Fixture> repeated_set_up(const Args& a, RunData& d,
                                         SetUp&& set_up) {
  std::unique_ptr<Fixture> fx;
  double total = 0.0;
  const std::size_t min_reps = a.trace ? 1 : 9;
  while (d.setup_s.size() < min_reps ||
         (!a.trace && total < 3.0 && d.setup_s.size() < 200)) {
    fx.reset();
    const std::uint64_t t0 = process_cpu_ns();
    fx = set_up();
    d.setup_s.push_back(static_cast<double>(process_cpu_ns() - t0) / 1e9);
    total += d.setup_s.back();
  }
  return fx;
}

int run_paper_batch(const Args& a);
int run_store_mixed(const Args& a);

}  // namespace perfbench
