#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, on short runs:
  1. the metric lists in BENCHMARK.json are the ones the benchmark
     prints (names, units, directions);
  2. the eight modeled or counted metrics are bit-identical across two
     traced runs with one seed, and for accelgen also across pool jobs
     1 and 2;
  3. max_rate_hz lies strictly inside its doubling bracket;
  4. no two workloads report a metric from the same computation: every
     modeled metric belongs to one workload, and a metric name reported
     by both workloads never reads the same on the two.
It also reports, without failing, whether the held-out seed still gives
the modeled metrics recorded in perfbench/seeds.json.
"""

import json
import os
import subprocess
import sys

# serve's last three come from the full-history smoother pass of its
# traced run.
MODELED = {
    "accelgen": ["cycles_geomean", "energy_uj_geomean"],
    "serve": ["modeled_p50_ms", "modeled_p99_ms", "max_rate_hz",
              "tick_macs.p50", "tick_macs.p99", "error_ratio"],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace=0, jobs=None):
    """One short run; returns its full metric record from .bench_out."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else {}
    check(out.returncode == 0 and result.get("correct") is True,
          f"{workload} seed {seed} trace {trace}: correct, exit 0")
    with open(os.path.join(".bench_out", f"{workload}-seed{seed}-trace{trace}.json")) as f:
        record = json.load(f)
    return {k: v["value"] for k, v in record["metrics"].items()}, record["notes"]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join("perfbench", "seeds.json")) as f:
        seeds = json.load(f)
    default, held_out = seeds["default_seed"], seeds["held_out_seed"]

    listed = json.loads(subprocess.run(
        ["python3", "perfbench/run.py", "--list-metrics"],
        capture_output=True, text=True, check=True).stdout.strip().splitlines()[-1])
    for key in ("end_to_end", "per_layer"):
        mine = [{k: m[k] for k in ("name", "unit", "better")} for m in spec[key]]
        check(mine == listed[key], f"BENCHMARK.json {key} matches the benchmark's metric list")

    reported = {}
    for workload, names in MODELED.items():
        a, notes = run(workload, default, trace=1)
        b, _ = run(workload, default, trace=1)
        check(all(a[n] == b[n] for n in names),
              f"{workload}: {', '.join(names)} identical across two runs of seed {default}")
        u, _ = run(workload, default)
        if workload == "accelgen":
            c, _ = run(workload, default, jobs=1)
            check(all(u[n] == c[n] == a[n] for n in names),
                  "accelgen: modeled metrics identical at pool jobs 1 and 2")
        if workload == "serve":
            lo = float(notes["max_rate_bracket_lo"])
            hi = float(notes["max_rate_bracket_hi"])
            check(lo < a["max_rate_hz"] < hi,
                  f"serve: max_rate_hz {a['max_rate_hz']:.0f} strictly inside ({lo:.0f}, {hi:.0f})")
        reported[workload] = {k: v for k, v in {**u, **a}.items() if v != 0}
        h, _ = run(workload, held_out, trace=1)
        drift = [n for n in names if h[n] != seeds["held_out_modeled"][workload][n]]
        print(f"info {workload}: held-out seed {held_out} modeled metrics "
              + ("as recorded" if not drift else "differ from perfbench/seeds.json: " + ", ".join(drift)))

    for workload, names in MODELED.items():
        others = [w for w in MODELED if w != workload]
        check(all(reported[o].get(n, 0) == 0 for o in others for n in names),
              f"{workload}: its modeled metrics are reported by no other workload")
    workloads = list(reported)
    for i, w1 in enumerate(workloads):
        for w2 in workloads[i + 1:]:
            same = sorted(n for n in reported[w1].keys() & reported[w2].keys()
                          if reported[w1][n] == reported[w2][n])
            check(not same, f"{w1} and {w2} report no shared metric with the same value"
                  + (f" (same: {', '.join(same)})" if same else ""))

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
