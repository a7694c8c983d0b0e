#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) and
prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), beside the metric's bound in
BENCHMARK.json.  A spread is steady when it is below a third of the
bound.  Exits 1 if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for k in range(a.runs):
        seed = a.first_seed + k
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print("run with seed %d failed" % seed)
            sys.exit(1)
        r = json.loads(out.stdout.strip().split("\n")[-1])
        if not r["correct"]:
            print("seed %d: %d of %d operations failed" % (seed, r["failed"], r["attempted"]))
            sys.exit(1)
        for name in values:
            values[name].append(r["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)
    print("%-14s %14s %9s %7s  %s" % ("metric", "median", "spread", "bound", "steady"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        print("%-14s %14.6g %8.2f%% %6.0f%%  %s" % (
            m["name"], med, 100 * spread, 100 * m["bound"],
            "yes" if spread < m["bound"] / 3 else "NO"))


if __name__ == "__main__":
    main()
