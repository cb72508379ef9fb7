"""The whole benchmark in one command.

``python -m benchmarks.perf [--seed N] [--out FILE]`` runs every workload
declared in ``BENCHMARK.json`` at its ``run_seconds``: each in its own
fresh child interpreter (which pins ``PYTHONHASHSEED=0``), sequentially,
first the end-to-end run (tracing off), then the per-layer run (traced
rep); the workload-independent micro-drivers run once, with the first
workload. It prints every metric by name with unit, direction and bounds
and writes one JSON document to ``--out``; the bench-side spans of each
workload go to ``trace-<workload>.json`` beside it.

``--compare A.json B.json`` judges two such documents; ``--selftest`` is
the quick guard described in :mod:`benchmarks.perf.selftest`.

Seed 11 is the development seed; seed 12 is held out: a later claim must
also hold there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

from benchmarks.perf import run  # first: puts src/ on sys.path
from benchmarks.perf import catalog, compare, selftest
from benchmarks.perf.drivers import DRIVERS
from benchmarks.perf.workloads import INJECTED

DEFAULT_SEED = 11
HELD_OUT_SEED = 12


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _run_child(workload: str, seed: int, trace: int, spans_path: str | None,
               drivers: bool = True) -> dict:
    """One child run; returns its ``detail`` object, or raises ``RuntimeError``."""
    command = [
        sys.executable, str(pathlib.Path(run.__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if spans_path:
        command += ["--spans", spans_path]
    if not drivers:
        command.append("--no-drivers")
    child = subprocess.run(command, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    for line in lines:
        if not line.startswith(("detail: ", "{")):
            print("  " + line)
    if child.returncode != 0:
        raise RuntimeError(child.stderr.strip().splitlines()[-1] if child.stderr.strip() else
                           f"exit code {child.returncode}")
    return json.loads(next(line for line in lines if line.startswith("detail: "))[8:])


def run_suite(seed: int, out: str | None) -> int:
    header = {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": catalog.contract()["run_seconds"],
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "injected": INJECTED,
        "claim": None,
    }
    document = {"header": header, "drivers": None, "workloads": {}}
    failed = []
    for entry in catalog.contract()["workloads"]:
        name = entry["name"]
        spans_base = str(pathlib.Path(out).with_name(f"trace-{name}")) if out else None
        try:
            plain = _run_child(name, seed, 0, spans_base and spans_base + ".json")
            traced = _run_child(name, seed, 1, spans_base and spans_base + ".layers.json",
                                drivers=document["drivers"] is None)
        except RuntimeError as failure:
            # A failed check marks the workload failed rather than emitting numbers.
            print(f"FAILED {name}: {failure}")
            document["workloads"][name] = {"ok": False, "error": str(failure)}
            failed.append(name)
            continue
        layers = traced.pop("metrics")
        if document["drivers"] is None:
            document["drivers"] = {driver: layers.pop(driver) for driver, _batch in DRIVERS}
        # Both runs carry the percentile and recovery metrics: the traced run
        # over its one rep, the end-to-end run over its five, which wins.
        document["workloads"][name] = {
            "ok": True,
            "why": entry["why"],
            "metrics": {**layers, **plain.pop("metrics")},
            "detail": {**plain, "traced": traced},
        }
    if out:
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"wrote {out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.selftest:
        return selftest.main(args.seed)
    return run_suite(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
