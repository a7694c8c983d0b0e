#!/bin/sh
# Repo check — the single tier-1 entry point:
#   1. full build (libs, tests, benches, examples);
#   2. the deterministic test suites (unit + conformance), and every
#      example and bench/main.exe experiment run to exit 0;
#   3. API docs (odoc), when the toolchain has odoc installed;
#   4. the conformance gate: differential quantization oracle,
#      metamorphic workload invariants, golden traces, the parallel
#      sweep determinism gate (jobs=1 vs jobs=N byte-identical), the
#      trace-determinism gate (sweep counters JSON byte-identical for
#      any --jobs; counting sink observer-neutral), the fault-injection
#      gate (--faults: schedule replay, faulted-sweep quarantine
#      determinism, collect-policy degradation), the compiled-executor
#      gate (--compiled: flat-schedule executor byte-identical to the
#      interpreter on every workload graph, batched; sweep metric
#      parity, one candidate at a time and as one lane block), the
#      verification-oracle gate
#      (--verify: prove/refute no-overflow and no-limit-cycle on every
#      workload flowgraph, range-analysis soundness cross-check,
#      counterexample stimuli pinned as golden files and replayed
#      through both executors), the cache/daemon gate
#      (--serve: no-cache vs cold vs warm vs warm-parallel sweep
#      reports byte-identical, warm hit coverage, a bounded cache
#      that evicts and stays byte-identical with only its live entries
#      on disk, daemon round-trip byte-equal to the local report), the synchronizer gate (--sync:
#      the closed ML-TED loop locks on drifting-tau 4-PAM, stays
#      within 2 dB MER after the §6.1 refinement with the saturating
#      integrator and error()-overruled NCO phase visible in the
#      decisions, sweeps jobs-independently) and the chaos gate
#      (--chaos: forked sweeps and daemons SIGKILLed at seeded points
#      mid-wave and mid-job, then resumed from the wave/intent
#      journals and required byte-identical to an undisturbed
#      reference; full CRC scrub of a deliberately corrupted cache).
#      None of these gates asserts a speed;
#   5. the benchmark self-test (perfbench/run.py --self-test, when
#      python3 is installed): every BENCHMARK.json workload runs once
#      and must produce its metrics, pass its output checks and repeat
#      its exact counts.  It asserts no timing threshold — speed is
#      judged by comparing full perfbench runs of two trees on one
#      machine;
#   6. the single-home check (scripts/check_single_home.sh): the
#      durable writer, the monitor codec, the JSON string escaper, the
#      flat-JSON reader, the sweep-checkpoint key, the compiled
#      candidate evaluator (dual-lattice compiles, cache keys), the
#      Welford update, the quantizer's rounding on the code grid, the
#      (bits, SQNR) Pareto dominance rule and front, interval
#      endpoint arithmetic and SplitMix64 are each defined once under
#      lib/ and nowhere in bin/, faults are injected only through
#      lib/fault and the simulator's assignment-site hook (no fault
#      parameter in lib/compile or lib/sfg), no flowgraph is built by
#      hand outside lib/sfg, the recorder and three named blocks (every analysis
#      extracts it from its design), every simulation environment in lib/,
#      bin/, examples/ and bench/ (but four named bench experiments)
#      is created by the design catalogue (lib/designs), and so is
#      every error() setting of a flow config,
#      every module under lib/ has a caller outside its own files, and
#      so has every value a lib/ .mli exports (tests count here);
#   7. the transcript-bearing docs (docs/TUTORIAL.md, docs/CLI.md,
#      docs/CACHING.md), re-executed command by command, plus a dead
#      relative-link check over README.md and docs/*.md, so the
#      documentation cannot rot;
#   8. the CLI exit codes (scripts/check_cli_usage.sh): every option
#      outside its domain exits 1 with one stderr line, not 2 (a
#      crash), and a command line that does not parse exits 1.
#
# Long-running steps are wrapped in `timeout` where available, so a
# hung worker domain or a wedged simulation fails the check instead of
# blocking it forever.
set -eu
cd "$(dirname "$0")/.."

# timeout(1) is coreutils; degrade to no wrapper where it is missing.
if command -v timeout >/dev/null 2>&1; then
  with_timeout() { timeout "$@"; }
else
  with_timeout() { shift; "$@"; }
fi

# The chaos gate forks daemons and sweeps and SIGKILLs them; if the
# gate itself is killed (timeout, ^C), its scratch dirs can be left
# with live orphan children.  Each scratch dir records the pids it
# forked in a `pids` file — kill them and remove the dirs on exit,
# along with any orphaned doc-transcript daemon sockets.
cleanup_chaos() {
  for d in "${TMPDIR:-/tmp}"/fxchaos-*; do
    [ -d "$d" ] || continue
    if [ -f "$d/pids" ]; then
      while IFS= read -r pid; do
        kill -KILL "$pid" 2>/dev/null || true
      done < "$d/pids"
    fi
    rm -rf "$d"
  done
  rm -f /tmp/fxterm.sock /tmp/fxcli.sock
}
trap cleanup_chaos EXIT INT TERM

with_timeout 600 dune build @all
with_timeout 600 dune runtest
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "check.sh: odoc not installed, skipping 'dune build @doc'"
fi
with_timeout 900 dune exec bin/fxrefine.exe -- check --faults
with_timeout 900 dune exec bin/fxrefine.exe -- check --compiled
with_timeout 900 dune exec bin/fxrefine.exe -- check --verify
with_timeout 900 dune exec bin/fxrefine.exe -- check --serve
with_timeout 900 dune exec bin/fxrefine.exe -- check --sync
# Hard timeout: the chaos gate SIGKILLs its own children, but a hung
# resume or a daemon that never drains must fail the check, not hang it.
with_timeout 900 dune exec bin/fxrefine.exe -- check --chaos --per-combo 1
if command -v python3 >/dev/null 2>&1; then
  with_timeout 600 python3 perfbench/run.py --self-test
else
  echo "check.sh: python3 not installed, skipping 'perfbench/run.py --self-test'"
fi
with_timeout 60 sh scripts/check_single_home.sh
with_timeout 60 sh scripts/check_links.sh
with_timeout 600 sh scripts/check_tutorial.sh
with_timeout 120 sh scripts/check_cli_usage.sh
