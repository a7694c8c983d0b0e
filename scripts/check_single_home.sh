#!/bin/sh
# Single-home check: the durable writer, the checked record frame (and
# its CRC-32), the bit-exact metrics codec, the JSON string escaper and
# shortest-exact float literal, the flat-JSON reader, the sweep-checkpoint
# key, the compiled candidate evaluator (its dual-lattice compiles
# and cache keys), the Welford update, the quantizer's rounding on
# the code grid, the (bits, SQNR) Pareto dominance rule and front, and
# interval endpoint arithmetic each live in exactly one module under
# lib/, and so does SplitMix64; fault injection lives in lib/fault and
# the simulator's assignment-site hook (lib/sim/env.ml), and neither the
# compiled executor nor the graph interpreter takes a fault hook; design
# construction and the designer's error() settings live in the design
# catalogue (lib/designs), graphs are extracted from the designs rather
# than built by hand, and the daemon opens sweep checkpoints in one
# place.  A second definition (or key construction,
# simulation environment or error() setting) anywhere else fails the
# check, so a copy cannot quietly drift from the original.  Last, every
# module under lib/ and every value its .mli exports must have a caller
# (the two no-caller rules below).
set -eu
cd "$(dirname "$0")/.."

fail=0

# home PATTERN FILES WHAT [DIRS] — PATTERN (grep -E) may match, within
# DIRS (default lib bin), only in FILES (one path, or several joined
# by |).
home() {
  hits=$(grep -rnE "$1" ${4:-lib bin} --include='*.ml' | grep -vE "^($2):" || true)
  if [ -n "$hits" ]; then
    echo "check_single_home: $3 outside $2:" >&2
    echo "$hits" >&2
    fail=1
  fi
}

home '^ *let (rec )?(write_atomic|fsync_dir|mkdir_p|read_file|readdir_sorted)\b|Unix\.fsync\b|Sys\.rename\b|Unix\.rename\b' \
  lib/store/durable.ml "durable file writer or helper"
# The record frame: CRC-32 computation and header rendering/parsing.
home '0xEDB88320|\bcrc[a-z0-9_]*\b|\bCrc32\b|%08l?x|^ *let (rec )?(write_record|read_record|render_entry|parse_entry|frame|unframe)\b' \
  lib/store/durable.ml "CRC-32 or record frame (use Store.Durable.write_record/read_record)"
home '^ *let (rec )?(parse_floats|floats_line|floats_lit)\b|(^|[^"])Stats\.(Running|Err_stats)\.of_raw\b' \
  lib/store/monitor.ml "monitor codec"
# The metrics record: its header, its field labels, its line helpers,
# the raw monitor fields it carries.
home '"fxmetrics|\b(opt_lit|opt_of_lit|pv_line|pe_line|pv_of_line|pe_of_line)\b|~label:"(sqnr|bits|ovf|errmax|pv|pe)"|"(sqnr|bits|ovf|errmax|pv|pe) ("|%[dhs])|Stats\.(Running|Err_stats)\.raw\b' \
  lib/store/monitor.ml "metrics record codec (use Store.Monitor.encode/decode)"
home '\\\\u%04x|^ *let (rec )?(json_escape|escape_json|json_string)\b' \
  lib/trace/json.ml "JSON string escaper"
home '^ *let (rec )?(tokenize|parse_flat_object|parse_object|of_line)\b|\bTobj_open\b|parse_literal "true"' \
  lib/trace/json.ml "flat-JSON reader"
# The shortest-exact float rule and the C formatter it calls: every
# JSON float literal is Trace.Json.float_lit's.
home '%\.15g|caml_format_float' \
  lib/trace/json.ml "shortest-exact float literal (use Trace.Json.float_lit)"
home '^ *let (rec )?sweep_key\b|Checkpoint\.sweep_key\b' \
  'lib/serve/protocol.ml|lib/sweep/checkpoint.ml' \
  "sweep-checkpoint key (use Serve.Protocol.checkpoint_key)"
# Cache keys: the reference builder and the per-block splice.
home '~dual:true([^"]|$)|\b(cache_key|key_source|lane_keys|splice_key|splice_source)([[:space:]]+[~a-z(]|[[:space:]]*$)|^ *let (rec )?(cache_key|key_source|lane_keys|splice_key|splice_source)\b' \
  lib/refine/eval.ml \
  "compiled candidate evaluation or cache key (use Refine.Eval.evaluate_lanes)"
# Welford's step: the mean moves by delta/count, m2 by delta*(v - mean).
home '\(delta[[:space:]]*/\.|delta[[:space:]]*\*\.[[:space:]]*\([^()]*-\.[[:space:]]*[A-Za-z_.]*mean\b' \
  lib/stats/running.ml "Welford update (use Stats.Running or Stats.Running.Lanes)"
# Rounding a value scaled onto a quantizer grid (by /. step or *.
# inv_step) to its code.  Quantize_spec is the differential oracle's
# deliberately independent second implementation of the cast.
home '(Float\.(round|floor|trunc|to_int)|Int64\.of_float|truncate)[[:space:]]*\(*[^;]*(/\.[[:space:]]*[A-Za-z_.]*step\b|\*\.[[:space:]]*[A-Za-z_.]*inv_step\b)|Float\.(round|floor|to_int)[[:space:]]+scaled\b' \
  'lib/fixpt/quantize.ml|lib/oracle/quantize_spec.ml' \
  "rounding on the quantizer grid (use Fixpt.Quantize.exec_into, exec_lanes or nearest_code)"
# The (bits, SQNR) dominance rule and the Pareto front built on it: the
# report and the pareto strategy mark one frontier.
home '^ *let (rec )?(dominates|pareto_front)\b' \
  lib/sweep/generator.ml "Pareto dominance rule or front (use Sweep.Generator)"
# Interval endpoint arithmetic: the inf*0 = 0 endpoint product and the
# min/max over endpoint products or quotients (a min of mins, a max of
# maxes).  Ops and Signal run it through Interval.Row's kernels.
home '\bendpoint_mul\b|(Float\.min|fmin|Float\.max|fmax)[[:space:]]*\((Float\.min|fmin|Float\.max|fmax)[[:space:]]' \
  lib/interval/interval.ml \
  "interval endpoint arithmetic (use Interval or Interval.Row)"

# SplitMix64: its increment and its two mixing multipliers are
# Stats.Rng's (Rng.mix is the stateless finalizer).
home '0x9[Ee]3779[Bb]97[Ff]4[Aa]7[Cc]15|0x[Bb][Ff]58476[Dd]1[Cc][Ee]4[Ee]5[Bb]9|0x94[Dd]049[Bb][Bb]133111[Ee][Bb]' \
  lib/stats/rng.ml "SplitMix64 (use Stats.Rng)" "lib bin bench examples"

# Fault injection: the plan's decisions, the bit-flip model and the one
# hook they arm, the simulator's assignment-site injector (§2.2: a value
# is quantized, and so faulted, where it is assigned).
home '\b(set_injector|flip_bit)\b|\bPlan\.fires\b' \
  'lib/fault/[^:]*|lib/sim/env\.ml' \
  "fault injection (arm it through Fault.Inject)"
# The compiled executor and the graph interpreter take no fault hook:
# faulted workloads run on the interpreter (Fault.Inject.workload drops
# the compiled path).
hits=$(grep -rnE '[?~]\(?inject\b|\binject[[:space:]]*:|type inject\b' \
  lib/compile lib/sfg --include='*.ml' --include='*.mli' || true)
if [ -n "$hits" ]; then
  echo "check_single_home: fault-injection parameter in lib/compile or" \
    "lib/sfg (inject faults through Fault.Inject and Sim.Env):" >&2
  echo "$hits" >&2
  fail=1
fi

# One graph per design: every analysis runs on the flowgraph Sim.Extract
# records from the design itself.  Graph nodes are built by hand only in
# lib/sfg, by the recorder (Sim.Record, Sim.Signal), in the verifier's
# pinned biquads (lib/verify/designs.ml), in Dsp.Biquad.to_sfg (the
# reference of ROADMAP item 11) and in Dsp.Fir.to_sfg, which only the
# VHDL fixtures call until the emitter takes the extracted FIR.
home '\bSfg\.Graph\.(fresh|input|const|add|sub|mul|div|neg|abs|min_|max_|shift|quantize|saturate|select|alias|delay|connect_delay|delay_of)\b|module [A-Za-z_]+ = Sfg\.Graph\b|open!? Sfg\b' \
  'lib/sfg/[^:]*|lib/sim/(record|signal)\.ml|lib/verify/designs\.ml|lib/dsp/(biquad|fir)\.ml' \
  "hand-built flowgraph (extract it from the design: Designs.Design.extract)" \
  "lib bin bench examples"
home '\bFir\.to_sfg\b' \
  'lib/oracle/golden\.ml|examples/fir_to_vhdl\.ml' \
  "Dsp.Fir.to_sfg outside the VHDL fixtures (extract the FIR from its design)" \
  "lib bin bench examples"

# Design construction: every simulation environment a design runs in is
# created by its catalogue entry, in lib/, bin/ and examples/ alike.
# Tests are outside the rule, so they may still build their own.
home '\bEnv\.create\b' \
  'lib/designs/[^:]*' \
  "simulation environment (build designs in lib/designs)" \
  "lib bin examples"
# bench/: the paper experiments build from the catalogue too, except
# these, which demonstrate monitors on bare signals, not designs:
#   fig2                 one assignment driving three signals' monitors
#   fig3                 consumed vs produced error across one quantizer
#   ablate_error         an error() model injected into one signal
#   ablate_adaptive_lsb  the coefficient type of a bare adaptive filter
bench_env_ok='fig2|fig3|ablate_error|ablate_adaptive_lsb'
hits=$(awk -v ok="^($bench_env_ok)\$" '
  /^let (rec )?[a-z_]/ { name = $2 == "rec" ? $3 : $2 }
  /(^|[^A-Za-z0-9_])Env\.create([^A-Za-z0-9_]|$)/ && name !~ ok {
    print FILENAME ":" FNR ": " $0 }' bench/*.ml)
if [ -n "$hits" ]; then
  echo "check_single_home: simulation environment in bench/ outside" \
    "$bench_env_ok (build designs in lib/designs):" >&2
  echo "$hits" >&2
  fail=1
fi

# The designer's error() settings of §6.1 belong to the design: the
# flow config's automatic error() LSB and per-signal overrides are set
# in the catalogue (Designs.Timing.config, Designs.Sync.overrule_nco_phase)
# and defined in the flow.
home '\b(auto_error_lsb|error_overrides)\b' \
  'lib/designs/[^:]*|lib/refine/flow.ml' \
  "error() setting of the flow config (set it in lib/designs)" \
  "lib bin bench examples"

# The daemon's wave journals: every checkpoint lib/serve opens goes
# through Daemon.checkpoint_of, which counts the jobs holding its key,
# so the last one out retires it and none deletes another's journal.
hits=$(awk '
  /^let (rec )?[a-z_]/ { name = $2 == "rec" ? $3 : $2 }
  /Checkpoint\.create/ && !(FILENAME == "lib/serve/daemon.ml" && name == "checkpoint_of") {
    print FILENAME ":" FNR ": " $0 }' lib/serve/*.ml)
if [ -n "$hits" ]; then
  echo "check_single_home: Sweep.Checkpoint.create in lib/serve outside" \
    "Daemon.checkpoint_of (open the journal there, so it is counted):" >&2
  echo "$hits" >&2
  fail=1
fi

# No caller: every module under lib/ is named by some .ml file in lib/,
# bin/, bench/, examples/ or perfbench/ besides its own .ml/.mli — bare
# inside its own library, as Lib.Module outside it (as Lib where the
# library is that one module).  lib/core only re-exports the libraries.
# A module that nothing calls is dead code, so it goes; the exceptions
# stay for the reason given beside them.
#   lib/dsp/biquad.ml  tests build it, and its l1_gain is the reference
#                      l1 bound for worst-case-gain proofs of feedback
#                      sections (ROADMAP item 11)
no_caller_ok='lib/dsp/biquad.ml'
cap() { printf '%s' "$1" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }'; }
for f in lib/*/*.ml; do
  dir=${f%/*}
  lib=${dir#lib/}
  base=$(basename "$f" .ml)
  case "$lib" in core) continue ;; esac
  case "|$no_caller_ok|" in *"|$f|"*) continue ;; esac
  if [ "$base" = "$lib" ]; then outside="\\b$(cap "$lib")\\b"
  else outside="\\b$(cap "$lib")\\.$(cap "$base")\\b"; fi
  inside=$(grep -lwE "$(cap "$base")" "$dir"/*.ml | grep -vx "$f" || true)
  callers=$(grep -rlE "$outside" lib bin bench examples perfbench \
    --include='*.ml' | grep -v "^$dir/" || true)
  if [ -z "$inside$callers" ]; then
    echo "check_single_home: $f has no caller outside its own .ml/.mli" \
      "(delete it, or list it in no_caller_ok with a reason)" >&2
    fail=1
  fi
done

# No caller, value by value: every val in a lib/ .mli is named, as a
# whole word, by some .ml file in lib/, bin/, bench/, examples/,
# perfbench/ or test/ other than its own .ml.  Tests count as callers
# here.  An export nothing names is dead API: drop it from the .mli,
# and delete it when its own module does not use it either.
words=$(mktemp)
trap 'rm -f "$words"' EXIT
grep -roE --include='*.ml' '[A-Za-z0-9_]+' lib bin bench examples perfbench test \
  | sort -u > "$words"
unused=$(grep -nE '^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_]*' lib/*/*.mli \
  | grep -v '^lib/core/' \
  | awk -v words="$words" '
      BEGIN { FS = ":"
              while ((getline line < words) > 0) {
                i = index(line, ":")
                n[substr(line, i + 1)]++
                own[line] = 1 } }
      { name = $3; sub(/^[[:space:]]*val[[:space:]]+/, "", name)
        sub(/[^A-Za-z0-9_].*$/, "", name)
        ml = $1; sub(/i$/, "", ml)
        if (n[name] - ((ml ":" name) in own) < 1)
          print $1 ":" $2 ": val " name }')
if [ -n "$unused" ]; then
  echo "check_single_home: exported values no .ml outside their own module names" \
    "(drop them from the .mli):" >&2
  echo "$unused" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "check_single_home: ok"
