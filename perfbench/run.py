#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 25 --trace 0

Run it from the repository root.  It configures and builds perfbench/ (the
parbs library from src/ plus the perfbench program) into .bench_build/, then
runs one workload.  Its last stdout line is the result object.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper16", "scale64", "scale64_sharded", "light16_writes")


def run_quiet(cmd):
    """Runs a build step; on failure shows its output and exits 1.

    The compiler's temporary files go under the build tree, so nothing is
    written outside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: src/ not found; run from a checkout of the "
                 "repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
               "--parallel", "4"])
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--record", action="store_true",
                        help="write perfbench/expected/<workload>.json "
                             "from this run (use --seed 1)")
    parser.add_argument("--quick", action="store_true",
                        help="tenth-length runs, no expected-file check "
                             "(for the benchmark's tests)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    expected = os.path.relpath(os.path.join(HERE, "expected"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", expected]
    if args.record:
        cmd.append("--record")
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
