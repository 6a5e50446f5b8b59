#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --workload halo-2r --seeds 5

Runs perfbench/run.py once per workload and seed 1..N with the run length
(run_seconds) from BENCHMARK.json, then prints, per workload and metric,
the median and the quartile spread (Q3 - Q1) / median from
statistics.quantiles(n=4), next to the metric's bound. A spread under a third of the bound is steady; setup_s
is reported but never gated on spread. Exits 1 if any run fails or any
gated spread reaches the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return None
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(1, args.seeds + 1):
            metrics = run_once(name, seed, seconds)
            if metrics is None:
                print("%s seed %d: run failed" % (name, seed))
                ok = False
                continue
            for key in values:
                values[key].append(metrics[key])
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.5g" % (k, metrics[k]) for k in values)), flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            gated = m["name"] != "setup_s"
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            if gated and spread > m["bound"]:
                ok = False
            print("  %-18s %-10s median %-12.6g spread %.4f (bound %.2f) %s"
                  % (name, m["name"], statistics.median(v), spread,
                     m["bound"], verdict if gated else "(not gated)"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
