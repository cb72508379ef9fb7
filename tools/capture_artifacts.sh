#!/usr/bin/env bash
# Capture every seed-determined CLI artifact of this checkout into OUTDIR,
# for a byte-identity comparison against another checkout's capture
# (tools/diff_artifacts.py A B). Run from the repo root of the tree to
# capture; takes ~2 min. Exit codes of the gates are recorded in
# OUTDIR/exit_codes.txt, not propagated (an audit alert is an artifact).
set -u

if [ $# -ne 1 ]; then
    echo "usage: tools/capture_artifacts.sh OUTDIR" >&2
    exit 2
fi
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
ROOT=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$ROOT/src"
SCENARIOS="e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e10sync e11 e11sync"

cd "$OUT" || exit 2
: > exit_codes.txt

run() {  # run NAME CMD... : stdout+stderr to NAME.txt, exit code recorded
    local name=$1
    shift
    "$@" > "$name.txt" 2>&1
    echo "$name $?" >> exit_codes.txt
}

for e in $SCENARIOS; do
    # One run directory per scenario; profile.json is host CPU seconds,
    # the one file that is not seed-determined, so it is dropped.
    run "run_$e" python -m repro run --experiment "$e" --seed 1 --out "run_$e"
    rm -f "run_$e/profile.json"
done
for e in e2 e10 e10sync; do
    run "schedfuzz_$e" python -m repro schedfuzz --experiment "$e" --seed 1 \
        --schedules 8 --out "schedfuzz_$e.json"
done
# The race detector's reports: what a change of carrier (a callback for a
# process) can silently rewire — its happens-before edges run through
# strands and scheduling edges, which no fingerprint above looks at.
for e in e2 e10; do
    run "races_$e" python -m repro schedfuzz --experiment "$e" --seed 1 \
        --schedules 2 --races --out "races_$e.json"
done
run all_small python -m repro all --scale small --seed 3
for example in "$ROOT"/examples/*.py; do
    run "example_$(basename "$example" .py)" python "$example"
done

echo "captured $(ls | wc -l) files into $OUT"
