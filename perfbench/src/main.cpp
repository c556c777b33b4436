// perfbench: the repository benchmark. One invocation runs one workload
// for --seconds and prints a human-readable report whose last line is a
// JSON object {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced pass and reports the
// per-layer metrics (see README.md). perfbench/run.py builds and runs it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_batch|store_mixed --seconds"
               " S [--seed N] [--trace 0|1]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = std::strtod(v, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else {
      return usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return usage(argv[0]);
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) return usage(argv[0]);
  if (a.workload == "paper_batch") return perfbench::run_paper_batch(a);
  if (a.workload == "store_mixed") return perfbench::run_store_mixed(a);
  return usage(argv[0]);
}
