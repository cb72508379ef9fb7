#!/usr/bin/env bash
# Record which lines of src/repro the repository's real traffic reaches,
# then which of the rest only the test suite reaches (tools/traffic_map.py).
# Run from the repo root; OUTDIR gets claimed/, traffic/ and tests/ dump
# directories and report.txt. Everything runs serially (a pool worker
# dumps nothing) and traced: about 3 min for the claimed set, 4 min for
# the rest of the traffic and 4 min for tier-1.
#
# The claimed set is what the paper's claims need: the experiment grid at
# both scales (it checks every experiment's claims), the 13-scenario
# audit gate and the reference benchmark's selftest. The rest of the
# traffic: every traced scenario under trace/metrics, latency, profile,
# schedfuzz, both determinism gates, lint, the six BENCHMARK.json
# workloads untraced and traced (the traced run drives all 26
# micro-drivers), and the examples.
set -u

if [ $# -ne 1 ]; then
    echo "usage: tools/traffic.sh OUTDIR" >&2
    exit 2
fi
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
ROOT=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$ROOT/src"
SCENARIOS="e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e10sync e11 e11sync"
WORKLOADS="steady_rw steady_rw_async hot_contention crash_churn long_outage_catchup snapshot_read_mostly"
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

record() { local dir=$1; shift; python "$ROOT/tools/traffic_map.py" run "$OUT/$dir" -- "$@" > /dev/null 2>&1; }
claimed() { record claimed "$@"; }
traffic() { record traffic "$@"; }

# The scenario subcommands default their outputs into the cwd.
cd "$SCRATCH" || exit 2
claimed python -m repro all --scale small --seed 3
claimed python -m repro all --scale full --seed 3
for e in $SCENARIOS; do
    claimed python -m repro audit --experiment "$e" --seed 1 --out a.jsonl
    traffic python -m repro trace --experiment "$e" --seed 1 --out t.json --jsonl t.jsonl
    traffic python -m repro metrics --experiment "$e" --seed 1 --out m.json
done
for e in e10 e11; do
    traffic python -m repro latency --experiment "$e" --seed 1 --out l.json --series l.jsonl
done
traffic python -m repro profile --experiment e2 --seed 1 --out p.json --folded p.txt --speedscope p.ss.json
traffic python -m repro schedfuzz --experiment e2 --seed 1 --schedules 2 --races --out s.json
traffic python -m repro schedfuzz --experiment e10 --seed 1 --schedules 2 --out s.json
traffic python -m repro.wal.determinism --seed 3
traffic python -m repro.wal.determinism --cross-schedule --seed 3
traffic python -m repro lint
for example in "$ROOT"/examples/*.py; do
    traffic python "$example"
done
cd "$ROOT" || exit 2
claimed python -m benchmarks.perf --selftest
for w in $WORKLOADS; do
    for t in 0 1; do
        traffic python3 benchmarks/perf/run.py --workload "$w" --seed 11 --seconds 0.5 --trace "$t"
    done
done

record tests python -m pytest -q -p no:cacheprovider tests

python "$ROOT/tools/traffic_map.py" report "$OUT/claimed" "$OUT/traffic" --tests "$OUT/tests" > "$OUT/report.txt"
grep -n -e "executable lines" -e "claimed traffic does not" "$OUT/report.txt"
echo "full report: $OUT/report.txt"
