#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload paper_batch --seed 1 --trace 0

builds perfbench/ into .bench_build/perfbench (incrementally), runs one
workload for --seconds (default: run_seconds in BENCHMARK.json), and
passes the program's report through; its last line is the JSON result.
Build output goes to stderr.

Steadiness check:
    python3 perfbench/run.py --steady --workload store_mixed --runs 10

runs two interleaved sets of runs (set A and set B, each with its own
seeds) of one build, and prints every end-to-end metric's median and
quartiles per set, its spread (interquartile range over median) and
whether the sets agree within the bounds in BENCHMARK.json. Host metadata
and every run's result go to .bench_build/steady/<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally. Exits non-zero (and
    prints no result) when the library sources or the toolchain are
    missing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "atom.hpp")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=300)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                       stdout=sys.stderr, check=True, timeout=900)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit("perfbench: build failed: %s" % e)


def run_once(workload, seed, seconds, trace, capture):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          timeout=RUN_TIMEOUT_S, text=True)
    return proc.returncode, proc.stdout


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def host_metadata():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {
        "git_sha": sha,
        "build_type": build_type,
        "hw_threads": os.cpu_count(),
        "thread_placement": "unpinned, OS scheduler over %d allowed cpus"
                            % len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    all_agree = True
    for workload in workloads:
        meta = host_metadata()
        print("== %s: 2 sets x %d runs of %s s; %s" %
              (workload, args.runs, seconds, json.dumps(meta)), flush=True)
        runs = {"A": [], "B": []}
        for i in range(args.runs):
            # Interleaved, alternating which set goes first.
            order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
            for s in order:
                seed = (1000 if s == "A" else 2000) + i
                t0 = time.time()
                code, out = run_once(workload, seed, seconds, 0, True)
                last = out.strip().splitlines()[-1] if out.strip() else ""
                try:
                    result = json.loads(last)
                except ValueError:
                    result = None
                if code != 0 or result is None or not result["correct"]:
                    print("run %s seed %d FAILED (exit %d)" % (s, seed, code))
                    all_agree = False
                    continue
                runs[s].append({"seed": seed, "wall_s": time.time() - t0,
                                "result": result})
                print("  %s seed %d: %s" % (s, seed, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items())), flush=True)
        table = {}
        print("%-16s %-3s %14s %14s %14s %8s %6s" %
              ("metric", "set", "q1", "median", "q3", "spread", "bound"))
        for name, m in bounds.items():
            row = {}
            for s in ("A", "B"):
                vals = [r["result"]["metrics"][name]["value"] for r in runs[s]]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                row[s] = {"q1": q1, "median": med, "q3": q3, "spread": spread}
                print("%-16s %-3s %14.6g %14.6g %14.6g %8.4f %6.3f" %
                      (name, s, q1, med, q3, spread, m["bound"]))
            if "A" not in row or "B" not in row:
                all_agree = False
                continue
            a, b = row["A"]["median"], row["B"]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spread_ok = max(row["A"]["spread"],
                            row["B"]["spread"]) <= m["bound"]
            agree = spread_ok and abs(worse) <= m["bound"]
            row["median_shift"] = worse
            row["agree"] = agree
            all_agree &= agree
            print("%-16s     median shift %+.4f, spreads %s -> %s" %
                  (name, worse, "ok" if spread_ok else "TOO WIDE",
                   "agree" if agree else "DISAGREE"))
            table[name] = row
        os.makedirs(os.path.join(ROOT, ".bench_build", "steady"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_build", "steady",
                               workload + ".json"), "w") as f:
            json.dump({"workload": workload, "seconds": seconds,
                       "host": meta, "runs": runs, "metrics": table}, f,
                      indent=1)
    return 0 if all_agree else 1


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]] + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true",
                   help="run two interleaved sets and compare them")
    p.add_argument("--runs", type=int, default=10,
                   help="runs per set in --steady mode")
    args = p.parse_args()
    build()
    if args.steady:
        return steady(args, spec)
    if args.workload == "all":
        p.error("--workload all is for --steady")
    seconds = args.seconds or spec["run_seconds"]
    code, _ = run_once(args.workload, args.seed, seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
