#!/usr/bin/env python3
"""Self-test of the step benchmark (about a minute once built).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload (those in BENCHMARK.json and the two four-rank ones) it
runs a short smoke mode (one timed second, at least 100 steps) and checks
that:
  * the result line has exactly correct/attempted/failed/metrics, the run is
    correct, and every end_to_end (--trace 0) or per_layer (--trace 1)
    metric is emitted, with its unit and a finite value;
  * two runs at the same seed print the same final-state hash;
  * the exact counts repeat bit for bit between two traced runs, on two
    different seeds, and each is nonzero on some workload BENCHMARK.json
    lists (one-rank workloads send nothing between ranks).
It also checks the failure paths: a corrupted final state exits 1 with
correct=false and every step failed; a behaviour-changing CMTBONE_ variable
that differs from its pinned value, an unknown workload, and a directory
that holds only the benchmark (no library sources) exit non-zero without a
result. Exits 1 on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

# Workloads the binary runs that BENCHMARK.json does not list (see README).
EXTRA_WORKLOADS = ("euler-particles-1r", "halo-4r", "euler-particles-4r")
EXACT_COUNTS = ("kernels.flops_per_step", "mesh.face_bytes",
                "mesh.face_partners", "gs.send_values")
SMOKE_SECONDS = "1"


def run(args, env=None, cwd=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, env=env, cwd=cwd)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stdout


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def state_hash(stdout):
    m = re.search(r"state_hash=([0-9a-f]+)", stdout)
    return m.group(1) if m else None


def check_result(name, result, specs):
    check(isinstance(result, dict) and set(result) == {
        "correct", "attempted", "failed", "metrics"},
        "%s: result line has exactly the four keys" % name)
    check(result["correct"] is True and result["failed"] == 0
          and isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "%s: correct, %d steps attempted, none failed"
          % (name, result["attempted"]))
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in specs},
          "%s: emits exactly the %d metrics of BENCHMARK.json"
          % (name, len(specs)))
    bad = [m["name"] for m in specs
           if metrics[m["name"]].get("unit") != m["unit"]
           or not isinstance(metrics[m["name"]].get("value"), (int, float))]
    check(not bad, "%s: every metric has its unit and a value %s"
          % (name, bad or ""))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    gated = [w["name"] for w in bench["workloads"]]
    nonzero = set()
    for name in gated + list(EXTRA_WORKLOADS):
        smoke = ["--workload", name, "--seconds", SMOKE_SECONDS]
        code1, res1, out1 = run(smoke + ["--seed", "1", "--trace", "0"])
        check(code1 == 0, "%s: end-to-end smoke run exits 0" % name)
        check_result(name + " --trace 0", res1, bench["end_to_end"])
        _, _, out2 = run(smoke + ["--seed", "1", "--trace", "0"])
        check(state_hash(out1) is not None
              and state_hash(out1) == state_hash(out2),
              "%s: final-state hash %s repeats at the same seed"
              % (name, state_hash(out1)))
        traced = []
        for seed in ("1", "2"):
            code, res, _ = run(smoke + ["--seed", seed, "--trace", "1"])
            check(code == 0, "%s: traced smoke run (seed %s) exits 0"
                  % (name, seed))
            check_result(name + " --trace 1", res, bench["per_layer"])
            traced.append(res["metrics"])
        for count in EXACT_COUNTS:
            a, b = (t[count]["value"] for t in traced)
            check(a == b, "%s: %s = %r on both seeds" % (name, count, a))
            if a != 0 and name in gated:
                nonzero.add(count)
    check(nonzero == set(EXACT_COUNTS),
          "every exact count is nonzero on some gated workload %s"
          % (sorted(set(EXACT_COUNTS) - nonzero) or ""))

    first = gated[0]
    code, res, _ = run(["--workload", first, "--seed", "1", "--seconds",
                        SMOKE_SECONDS, "--trace", "0", "--corrupt"])
    check(code == 1 and res is not None and res["correct"] is False
          and res["failed"] == res["attempted"],
          "corrupted final state: exit 1, correct=false, all steps failed")

    env = dict(os.environ, CMTBONE_THREADS_PER_RANK="2")
    code, res, _ = run(["--workload", first, "--seed", "1", "--seconds",
                        SMOKE_SECONDS, "--trace", "0"], env=env)
    check(code != 0 and res is None,
          "CMTBONE_THREADS_PER_RANK=2: refused without a result")

    code, res, _ = run(["--workload", "no-such-workload", "--seed", "1",
                        "--seconds", SMOKE_SECONDS, "--trace", "0"])
    check(code != 0 and res is None, "unknown workload: no result")

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = run(["--workload", first, "--seed", "1", "--seconds",
                        SMOKE_SECONDS, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and res is None,
          "directory without the library sources: no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
