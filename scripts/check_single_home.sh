#!/bin/sh
# Single-home check: the durable writer, the bit-exact monitor codec,
# the JSON string escaper, the flat-JSON reader, the sweep-checkpoint
# key, the compiled candidate evaluator (its dual-lattice compiles
# and cache keys), the Welford update, the quantizer's rounding on
# the code grid and interval endpoint arithmetic each live in exactly
# one module under lib/, and design construction lives in the design
# catalogue (lib/designs).  A second definition (or key construction,
# or simulation environment) anywhere else in lib/ or bin/ fails the
# check, so a copy cannot quietly drift from the original.
set -eu
cd "$(dirname "$0")/.."

fail=0

# home PATTERN FILES WHAT — PATTERN (grep -E) may match only in FILES
# (one path, or several joined by |).
home() {
  hits=$(grep -rnE "$1" lib bin --include='*.ml' | grep -vE "^($2):" || true)
  if [ -n "$hits" ]; then
    echo "check_single_home: $3 outside $2:" >&2
    echo "$hits" >&2
    fail=1
  fi
}

home '^ *let (rec )?(write_atomic|fsync_dir|mkdir_p|read_file|readdir_sorted)\b|Unix\.fsync\b|Sys\.rename\b|Unix\.rename\b' \
  lib/store/durable.ml "durable file writer or helper"
home '^ *let (rec )?(parse_floats|floats_line|floats_lit)\b|(^|[^"])Stats\.(Running|Err_stats)\.of_raw\b' \
  lib/store/monitor.ml "monitor codec"
home '\\\\u%04x|^ *let (rec )?(json_escape|escape_json|json_string)\b' \
  lib/trace/json.ml "JSON string escaper"
home '^ *let (rec )?(tokenize|parse_flat_object|parse_object|of_line)\b|\bTobj_open\b|parse_literal "true"' \
  lib/trace/json.ml "flat-JSON reader"
home '^ *let (rec )?sweep_key\b|Checkpoint\.sweep_key\b' \
  'lib/serve/protocol.ml|lib/sweep/checkpoint.ml' \
  "sweep-checkpoint key (use Serve.Protocol.checkpoint_key)"
home '~dual:true([^"]|$)|\bcache_key([[:space:]]+~|[[:space:]]*$)|^ *let (rec )?cache_key\b' \
  lib/refine/eval.ml \
  "compiled candidate evaluation (use Refine.Eval.evaluate_lanes)"
# Welford's step: the mean moves by delta/count, m2 by delta*(v - mean).
home '\(delta[[:space:]]*/\.|delta[[:space:]]*\*\.[[:space:]]*\([^()]*-\.[[:space:]]*[A-Za-z_.]*mean\b' \
  lib/stats/running.ml "Welford update (use Stats.Running or Stats.Running.Lanes)"
# Rounding a value scaled onto a quantizer grid (by /. step or *.
# inv_step) to its code.  Quantize_spec is the differential oracle's
# deliberately independent second implementation of the cast.
home '(Float\.(round|floor|trunc|to_int)|Int64\.of_float|truncate)[[:space:]]*\(*[^;]*(/\.[[:space:]]*[A-Za-z_.]*step\b|\*\.[[:space:]]*[A-Za-z_.]*inv_step\b)|Float\.(round|floor|to_int)[[:space:]]+scaled\b' \
  'lib/fixpt/quantize.ml|lib/oracle/quantize_spec.ml' \
  "rounding on the quantizer grid (use Fixpt.Quantize.exec_into, exec_lanes or nearest_code)"
# Interval endpoint arithmetic: the inf*0 = 0 endpoint product and the
# min/max over endpoint products or quotients (a min of mins, a max of
# maxes).  Ops and Signal run it through Interval.Row's kernels.
home '\bendpoint_mul\b|(Float\.min|fmin|Float\.max|fmax)[[:space:]]*\((Float\.min|fmin|Float\.max|fmax)[[:space:]]' \
  lib/interval/interval.ml \
  "interval endpoint arithmetic (use Interval or Interval.Row)"

# Design construction: every simulation environment a design runs in is
# created by its catalogue entry.  Tests and examples are outside lib/
# and bin/, so they may still build their own.
home '\bEnv\.create\b' \
  'lib/designs/[^:]*' \
  "simulation environment (build designs in lib/designs)"

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "check_single_home: ok"
