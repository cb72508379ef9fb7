#!/usr/bin/env bash
# Record which lines of src/repro the repository's real traffic reaches,
# then which of the rest only the test suite reaches (tools/traffic_map.py).
# Run from the repo root; OUTDIR gets claimed/, traffic/ and tests/ dump
# directories and report.txt. Everything runs serially (a pool worker
# dumps nothing) and traced: about 12 min in all on a shared 2-core
# host, a third of it tier-1.
#
# The claimed set is what the paper's claims need: the experiment grid at
# both scales (it checks every experiment's claims), the 13-scenario
# audit gate (`repro run`, which also attaches the sampler and the host
# profiler) and the reference benchmark's selftest. The rest of the
# traffic: schedfuzz, the six BENCHMARK.json workloads untraced and
# traced (the traced run drives all 26 micro-drivers), and the examples.
# replint and the determinism checks are tier-1 tests, so they count
# with the tests.
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

# Every output is written under the scratch directory.
cd "$SCRATCH" || exit 2
claimed python -m repro all --scale small --seed 3
claimed python -m repro all --scale full --seed 3
for e in $SCENARIOS; do
    claimed python -m repro run --experiment "$e" --seed 1 --out "run_$e"
done
traffic python -m repro schedfuzz --experiment e2 --seed 1 --schedules 2 --races --out s.json
traffic python -m repro schedfuzz --experiment e10 --seed 1 --schedules 2 --out s.json
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
