#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 lazybench/spread.py --workload explore_warm,served_ingest \\
        --seeds 1-10 --seconds 45 --sets 2

Each run's last stdout line is the benchmark's result. For every metric
the script prints the median over a set's runs and the spread: the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median. With ``--sets 2`` or more, every workload's set
is run again after all workloads' previous sets, and each later median is
given as a change against the first set's median, to compare with the
bounds in ``BENCHMARK.json``. ``--bin`` runs a prebuilt binary instead of
``cargo run``.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_set(cmd, workload, seed_list, seconds, trace):
    values = {}
    for seed in seed_list:
        out = subprocess.run(
            cmd + ["--workload", workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: incorrect result {result}")
        cells = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{workload} seed {seed}: "
              + " ".join(f"{k}={v:.4g}" for k, v in cells.items())
              + f" | steal={report['host']['host.steal_ticks']}"
              + f" cpu={report['host']['host.cpu_share']:.2f}", flush=True)
        for k, v in cells.items():
            values.setdefault(k, []).append(v)
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="one or more, comma-separated")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--bin", help="prebuilt lazybench binary")
    a = ap.parse_args()
    if a.bin:
        cmd = [a.bin]
    else:
        cmd = ["cargo", "run", "--release", "--offline", "-q",
               "--manifest-path", "lazybench/Cargo.toml", "--"]
    workloads = a.workload.split(",")
    first = {}
    for n in range(1, a.sets + 1):
        for w in workloads:
            values = run_set(cmd, w, seeds(a.seeds), a.seconds, a.trace)
            print(f"\n{w}, set {n}")
            print(f"{'metric':<40} {'median':>12} {'iqr/median':>11} {'vs set 1':>9}")
            for k, vs in values.items():
                med = statistics.median(vs)
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                base = first.setdefault((w, k), med)
                change = (med - base) / base if base else float("nan")
                print(f"{k:<40} {med:>12.5g} {spread:>11.3f} {change:>+9.3f}")
            print(flush=True)


if __name__ == "__main__":
    main()
