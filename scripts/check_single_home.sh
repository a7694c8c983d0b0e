#!/bin/sh
# Single-home check: the durable writer, the bit-exact monitor codec,
# the JSON string escaper and the flat-JSON reader each live in exactly
# one module under lib/.  A second definition anywhere else in lib/
# fails the check, so a copy cannot quietly drift from the original.
set -eu
cd "$(dirname "$0")/.."

fail=0

# home PATTERN FILE WHAT — PATTERN (grep -E) may match only in FILE.
home() {
  hits=$(grep -rnE "$1" lib --include='*.ml' | grep -v "^$2:" || true)
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

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "check_single_home: ok"
