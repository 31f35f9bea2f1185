#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per (workload, seed), sequentially,
from the repository root, and prints per metric the median and the
inter-quartile range as a share of the median (Python's
``statistics.quantiles(values, n=4)``) next to a third of the metric's
bound. Sim-clock figures and the determinism digest are checked with
``perfbench/determinism.py`` instead.

    python3 perfbench/spread.py --seeds 1-10 [--workloads pool_scan,...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(cmd, workload, seed, seconds, trace=0):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for w in workloads:
        values = {}
        for s in seeds:
            out = run(bench["command"], w, s, bench["run_seconds"])
            assert out["correct"], (w, s, out)
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} (seeds {seeds[0]}..{seeds[-1]})")
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0], v[0], v[0]]
            share = (q[2] - q[0]) / med if med else float("inf")
            target = metric["bound"] / 3
            flag = "ok" if share < target or metric["name"] == "setup_s" else "WIDE"
            if metric["name"] != "setup_s":
                worst = max(worst, share / metric["bound"])
            print(f"  {metric['name']:<18} median {med:12.6g}  iqr/median {share:.4f}"
                  f"  bound/3 {target:.4f}  {flag}  {['%.6g' % x for x in v]}")
        sys.stdout.flush()
    print(f"worst spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
