#!/usr/bin/env python3
"""Measure the benchmark's own spread.

Runs the benchmark once per seed on each named workload, one run at a
time, and prints for every metric its median and its interquartile range
as a share of the median (the statistic the bounds in BENCHMARK.json are
checked against), next to a third of the bound, the target a steady
metric should stay under.

    python3 perfbench/spread.py --seeds 10 --seconds 10 table1_general live_pages

Run it from the repository root. It builds the benchmark first (through
cargo, like the benchmark's own command) and fails if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit(f"{w} seed {seed}: exit {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect run {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.seeds} seeds, {seconds} s)")
        for name, xs in values.items():
            med = statistics.median(xs)
            if len(xs) >= 2 and med:
                q = statistics.quantiles(xs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            target = bounds.get(name)
            flag = ""
            if target is not None:
                flag = f"  (bound/3 {target / 3:.4f}{' OVER' if spread > target / 3 else ''})"
            print(f"  {name:<34} median {med:<14.6g} spread {spread:.4f}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{x:.6g}" for x in xs))


if __name__ == "__main__":
    main()
