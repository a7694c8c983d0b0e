#!/bin/sh
# CLI exit-code check: an option outside its domain is a usage error,
# which exits 1 with one stderr line naming the problem — never 2, the
# code (and two-line message) of a crash.  Each invocation below must
# exit 1 with exactly one line on stderr, and a valid verify run must
# exit 0, so a check that moves back into a library guard shows up
# here as a crash.  A command line Cmdliner cannot parse is a usage
# error too: exit 1, the first stderr line naming the problem, then
# Cmdliner's usage lines.
set -eu
cd "$(dirname "$0")/.."

dune build bin/fxrefine.exe
exe=_build/default/bin/fxrefine.exe

err=$(mktemp)
trap 'rm -f "$err"' EXIT
fail=0

usage() {
  code=0
  "$exe" "$@" >/dev/null 2>"$err" || code=$?
  lines=$(wc -l < "$err")
  if [ "$code" -ne 1 ] || [ "$lines" -ne 1 ]; then
    echo "check_cli_usage: FAILED: fxrefine $* exited $code with $lines stderr line(s):" >&2
    sed 's/^/  /' "$err" >&2
    fail=1
  fi
}

# parse ARGS — fxrefine ARGS must exit 1 with a first stderr line that
# starts with "fxrefine:" (Cmdliner's usage lines may follow).
parse() {
  code=0
  "$exe" "$@" >/dev/null 2>"$err" || code=$?
  if [ "$code" -ne 1 ] || ! head -n 1 "$err" | grep -q '^fxrefine:'; then
    echo "check_cli_usage: FAILED: fxrefine $* exited $code with stderr:" >&2
    sed 's/^/  /' "$err" >&2
    fail=1
  fi
}

usage verify fir --max-states 0
usage verify fir --depth 0
usage verify fir --max-bits 21
usage verify fir --max-bits=-1
usage trace --ring 0
usage sweep --budget 0
usage sweep --jobs 0
usage sweep --strategy bisect --target-db nan
usage sweep --strategy bisect --target-db inf
for rate in nan-rate inf-rate denormal-rate extreme-rate bitflip-rate overflow-rate; do
  usage faultsim "--$rate" 2
  usage faultsim "--$rate=-0.5"
  usage faultsim "--$rate" nan
done
usage faultsim --extreme-mag 0
usage faultsim --starve-after=-1
usage faultsim --f-min 8 --f-max 4
usage faultsim --seeds 0
usage faultsim --jobs 0
usage compile fir --batch 0
usage compile fir --steps=-1
usage compile fir --steps 0
usage serve --max-conns 0
usage serve --max-entries 0
parse verify fir --max-states x
parse faultsim --nan-rate -1
parse nosuchcmd

code=0
"$exe" verify biquad-repaired --max-states 1024 >/dev/null 2>"$err" || code=$?
if [ "$code" -ne 0 ]; then
  echo "check_cli_usage: FAILED: fxrefine verify biquad-repaired --max-states 1024 exited $code" >&2
  fail=1
fi

[ "$fail" -eq 0 ] || exit 1
echo "check_cli_usage: PASS"
