#!/usr/bin/env python3
"""Build and run one workload of the fixed-point refinement benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The script builds the measuring
program (perfbench/bench.ml) and the fxrefine CLI with dune, runs the
workload in a fresh process inside a fresh directory under
.perfbench_runs/, and prints that process's report; the last line is
the JSON result.  With --trace 0 the result holds the end-to-end
metrics, with --trace 1 the per-layer ones.  See perfbench/WORKLOADS.md.

--self-test runs every workload once with a one-second window, untraced
and twice traced, and asserts that every metric named in
BENCHMARK.json is printed with its unit, that every output check
passes, and that the traced run's exact counts repeat.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["sweep-fir", "sweep-sync", "serve-mix", "verify-bounded"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
FXREFINE = os.path.join("_build", "default", "bin", "fxrefine.exe")
RUNS = ".perfbench_runs"
CHILD_TIMEOUT_S = 170

# Per-layer counts that must repeat exactly across traced runs.
EXACT = [
    "sweep.minor_words_per_cand", "compile.instrs", "verify.states",
    "verify.transitions", "verify.proved", "verify.refuted", "verify.bounded",
    "serve.hits", "serve.misses", "serve.inserts", "serve.evictions",
    "sweep.replayed_waves", "serve.cache_mb", "serve.journal_mb",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ["dune-project", "lib", "bin", os.path.join("perfbench", "dune")]:
        if not os.path.exists(need):
            fail("not a checkout of the repository (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/fxrefine.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")


def stop_group(pgid):
    """SIGKILL whatever the run left in its process group (a daemon of
    a crashed serve-mix run) and wait until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return (report lines, parsed result or None)."""
    run_dir = os.path.join(RUNS, "%s-%d-%d" % (workload, os.getpid(), time.time_ns()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", os.path.abspath(run_dir),
           "--fxrefine", os.path.abspath(FXREFINE),
           "--pins", os.path.join("perfbench", "sync_pins.txt")]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        p.kill()
        p.wait()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
    finally:
        stop_group(p.pid)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if p.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return lines, result


def metric_names(kind):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def self_test():
    build()
    problems = []
    traced = {}  # workload -> exact counts of its first traced run
    for w in WORKLOADS:
        for trace in (0, 1, 1):
            lines, result = run_workload(w, 7, 1, trace)
            tag = "%s --trace %d" % (w, trace)
            if result is None:
                problems.append(tag + ": no result line")
                print("\n".join(lines[-5:]))
                continue
            want = metric_names("per_layer" if trace else "end_to_end")
            got = result["metrics"]
            for name, unit in want.items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (tag, name))
                elif got[name].get("unit") != unit:
                    problems.append("%s: %s has unit %r, want %r"
                                    % (tag, name, got[name].get("unit"), unit))
            for name in got:
                if name not in want:
                    problems.append("%s: unexpected metric %s" % (tag, name))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d operations failed"
                                % (tag, result["failed"], result["attempted"]))
            if trace and got.get("trace.exact_mismatches", {}).get("value", 1) != 0:
                problems.append(tag + ": exact counts did not repeat within the run")
            if trace:
                prev = traced.get(w)
                counts = {k: got[k]["value"] for k in EXACT if k in got}
                if prev is not None and prev != counts:
                    diff = [k for k in counts if counts[k] != prev.get(k)]
                    problems.append("%s: exact counts differ across traced runs: %s"
                                    % (tag, ", ".join(diff)))
                traced[w] = counts
            print("self-test: %s ran (%d attempted)" % (tag, result["attempted"]))
    if problems:
        print("\n".join("FAIL " + p for p in problems))
        sys.exit(1)
    print("self-test: all workloads passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        self_test()
        return
    if a.workload is None:
        ap.error("--workload is required")
    build()
    lines, result = run_workload(a.workload, a.seed, a.seconds, a.trace)
    if result is None:
        print("\n".join(lines), file=sys.stderr)
        fail("%s produced no result" % a.workload)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
