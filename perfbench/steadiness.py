#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs each workload once per seed through perfbench/run.py, one run at
a time, and prints for every end-to-end metric the median and the
spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  Run from the
root of a checkout:

    python3 perfbench/steadiness.py --runs 10 [--workloads serve,stream]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    out = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    spec = bench()
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            start = time.monotonic()
            r = run_once(spec, workload, args.first_seed + i, args.seconds)
            wall = time.monotonic() - start
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {args.first_seed + i}: incorrect run: {r}")
                return 1
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
            print(f"{workload} seed {args.first_seed + i} ({wall:.0f} s): " +
                  ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {workload:9s} {name:14s} median {med:10.5g}  spread {spread:6.1%}"
                  f"  (bound {bounds[name]:.0%})")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
