#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload accelgen --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/ and run artifacts (per-run metric
records, Chrome traces) to .bench_out/.  The last line of standard
output is the result as one JSON object.  See perfbench/README.md.
"""

import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"

# A shared host can slow each of its CPUs independently for seconds at
# a time.  serve runs one OCaml domain, a single thread, which the
# scheduler leaves on one CPU; moving it to the next CPU every 10 ms
# gives it equal time on each, so a run does not depend on which CPU it
# happened to get.  The period is short enough that each batch of the
# benchmark's calibration runs (about 50 ms) also spans both CPUs, like
# the replays it calibrates.  accelgen is left alone: its two domains
# already use both CPUs, and moving its main domain made its runs
# spread more, not less.
SINGLE_THREADED = {"serve"}
ROTATE_S = 0.01

def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run this from the root of a checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    # Keep every file the build writes inside the checkout: no shared
    # dune cache, and compiler temporaries under the build directory.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    proc = subprocess.Popen([exe] + argv, env=env)
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else None
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while workload in SINGLE_THREADED and len(cpus) > 1 and proc.poll() is None:
        try:
            os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
        except OSError:
            pass
        turn += 1
        time.sleep(ROTATE_S)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
