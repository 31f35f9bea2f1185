#!/usr/bin/env python3
"""Same seed, same sim-clock figures and verdict bytes.

Runs every workload of BENCHMARK.json twice with one seed and a short
budget, and fails unless the `[sim]`-clock lines and the determinism
digest (an MD5 over the verdict bytes of the deterministic window) are
identical. Host-clock figures are left to the benchmark's bounds.

    python3 perfbench/determinism.py [--seed 1009] [--seconds 2]
"""

import argparse
import json
import os
import subprocess
import sys


def fingerprint(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return [line for line in proc.stdout.splitlines()
            if "[sim]" in line or line.startswith("determinism ")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1009)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bench = json.load(open("BENCHMARK.json"))
    failed = False
    for w in (x["name"] for x in bench["workloads"]):
        a = fingerprint(bench["command"], w, args.seed, args.seconds)
        b = fingerprint(bench["command"], w, args.seed, args.seconds)
        same = a == b and any(line.startswith("determinism ") for line in a)
        failed |= not same
        print(f"{w}: {'identical' if same else 'DIFFERENT'} ({len(a)} lines)")
        for line in a:
            print("   ", line)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
