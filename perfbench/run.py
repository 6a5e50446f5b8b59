#!/usr/bin/env python3
"""Build and run the CMT-bone step benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rhs-1r --seed 1 --seconds 10 --trace 0

Builds perfbench/ together with the libraries under src/ into
.bench_build/perfbench (incrementally after the first time), runs one
workload and forwards the report. The last line of stdout is the JSON
result; build output goes to stderr. The exit code is the benchmark's:
0 correct, 1 a correctness check failed, anything else no result.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cmtbone_perfbench")
RUN_TIMEOUT_S = 170
REQUIRED = ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
            "perfbench/step_bench.cpp")


def build():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        sys.exit("run.py: missing %s; run from the repository root"
                 % ", ".join(missing))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "cmtbone_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb the final state (tests the gate)")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        sys.exit("run.py: no result from the benchmark (exit %d)"
                 % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
