"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro e1 [--seed 3] [--scale small|full] [--jobs 4]
    python -m repro all --scale small --jobs 4
    python -m repro run --experiment e2 [--seed 1] [--out DIR]
    python -m repro schedfuzz --experiment e2 [--schedules 8] [--races]
        [--out schedules.json | --replay schedules.json]

Each experiment prints the table documented in EXPERIMENTS.md and one
line per paper claim checked on it (exit 1 if any fails); ``small`` scale
finishes in a few seconds per experiment, ``full`` matches the recorded
tables. ``--jobs N`` fans the (scheme × seed × config) cell
grid across a process pool — results are identical to a serial run
(cells are pure functions of their arguments). Performance is measured
by the reference benchmark, not from here: ``python -m benchmarks.perf``
(``BENCHMARK.json``, ``benchmarks/perf/README.md``).

``run`` runs one small traced scenario of an experiment (spans and
timeline on; see :func:`repro.harness.runner.run_traced`) with every
observer attached at once: the online protocol auditor
(:mod:`repro.audit`), the windowed time-series sampler
(:mod:`repro.obs.timeseries`) and the host-CPU profiler
(:mod:`repro.obs.profiler`). It writes one run directory
(:data:`RUN_FILES`): the report it also prints (summary lines, then the
recovery timeline with its latency-budget, throughput-trough and audit
sections), the Chrome trace-event file for chrome://tracing or
https://ui.perfetto.dev, the JSONL stream (spans, instants, sampled
series, metrics snapshot), the alert stream, the latency budget, the
sim-time flamegraph in flamegraph.pl collapsed format (speedscope opens
it too) and the host-CPU fold. It exits 1 when any **critical** alert
fired, which is exactly the CI audit gate. What the probes cost is the
reference benchmark's ``obs.trace_overhead_pct``.

``schedfuzz`` runs the schedule-space sanitizer (:mod:`repro.sanitize`):
K perturbed schedules of one traced scenario — same seed, shuffled
same-timestamp tie-breaks — each compared against the canonical run on
committed-state fingerprint and audit-alert signature. A divergence
means the protocol's outcome depended on an arbitrary scheduling
tie-break; the failing decision list is then delta-debugged down to a
minimal replayable schedule and exported (``--out``) as a JSON artifact
that ``--replay`` re-runs. ``--races`` additionally attaches the
happens-before race detector (vector clocks over simulated strands) to
the perturbed runs.

Checks that only pass or fail are tier-1 tests (``python -m pytest
tests/``), not subcommands: replint (:mod:`repro.lint`,
``tests/lint/test_baseline_gate.py``) and the same-seed and
cross-schedule determinism tests — see ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import typing

from repro.harness import parallel
from repro.harness.runner import EXPERIMENTS, experiment_module, run_traced
from repro.obs import hostclock
from repro.obs.report import recovery_timeline, render_recovery_timeline


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for Bhargava & Ruan (1986), "
        "'Site Recovery in Replicated Distributed Database Systems'.",
    )
    parser.add_argument(
        "experiment", type=str.lower,
        help=f"experiment id (e1..e11), or one of: {', '.join(SUBCOMMANDS)}",
    )
    parser.add_argument("--seed", type=int, default=3, help="master seed")
    parser.add_argument(
        "--scale", choices=("small", "full"), default="small",
        help="parameter scale (default: small)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan experiment cells across N worker processes",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="run: the run directory (default: run_<experiment>_<seed>); "
        "schedfuzz: the schedule artifact",
    )
    # Options of the scenario-running subcommands (ignored elsewhere).
    parser.add_argument(
        "--experiment", dest="scenario", type=str.lower, default="e2",
        metavar="EID",
        help="run/schedfuzz: which traced scenario to run (default: e2; "
        "'list' names them)",
    )
    # schedfuzz-only options (ignored by the other subcommands).
    parser.add_argument(
        "--schedules", type=int, default=8, metavar="K",
        help="schedfuzz: number of perturbed schedules (default: 8)",
    )
    parser.add_argument(
        "--races", action="store_true",
        help="schedfuzz: attach the happens-before race detector to the "
        "perturbed runs (reports ride on the artifact; they never gate)",
    )
    parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="schedfuzz: re-run the minimal schedule from a previously "
        "exported artifact instead of fuzzing",
    )
    return parser


def run_list(args: argparse.Namespace) -> int:
    """The ``list`` subcommand: every experiment id, its title, and the
    names ``--experiment`` takes for its traced scenarios, baseline first."""
    for key, spec in EXPERIMENTS.items():
        print(f"{key}  {spec['title']}  [traced: {', '.join(spec['scenarios'])}]")
    return 0


def run_experiments(args: argparse.Namespace) -> int:
    """One experiment's table — or, for ``all``, the whole E1–E11 grid
    with every cell of every experiment pooled together — each followed
    by one line per paper claim its module's ``claims`` checks on it.

    Exits 1 if a claim fails. The dispatch table's fallback: a name that
    is neither a subcommand nor an experiment id exits 2.
    """
    name, single = args.experiment, args.experiment != "all"
    if single and name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
        return 2
    specs = [
        (key, experiment_module(key), {**EXPERIMENTS[key][args.scale], "seed": args.seed})
        for key in ([name] if single else EXPERIMENTS)
    ]
    start = hostclock.now()
    tables = parallel.run_grid(specs, jobs=args.jobs)
    wall = hostclock.now() - start
    failed = []
    # Blank lines as CI tees them: `all` separates its tables, a single
    # experiment trails its footer. Each table's claims follow it.
    for key, module, _params in specs:
        checked = module.claims(tables[key])
        failed += [claim.id for claim in checked if not claim.holds]
        lines = [tables[key].render()] + [claim.render() for claim in checked]
        print("\n".join(lines), end="\n" if single else "\n\n")
    print(f"({name} at scale={args.scale}, seed={args.seed}, "
          f"jobs={args.jobs or 1}, {wall:.1f}s wall)", end="\n\n" if single else "\n")
    if failed:
        print(f"{name}: {len(failed)} claim(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


#: What ``repro run`` writes into its run directory, in writing order
#: (docs/OBSERVABILITY.md's "CLI" table says what each holds). All but
#: ``profile.json``, the host-CPU fold, are a function of the scenario
#: and the seed alone.
RUN_FILES = (
    "report.txt",
    "trace.json",
    "run.jsonl",
    "alerts.jsonl",
    "latency.json",
    "sim.folded.txt",
    "profile.json",
)


def _write_json(path: pathlib.Path, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_scenario(args: argparse.Namespace) -> int:
    """The ``run`` subcommand: one traced scenario under every observer.

    The protocol auditor, the windowed sampler and the host-CPU profiler
    ride one :func:`run_traced`; every artifact of that run goes into
    one directory (``--out``, default ``run_<experiment>_<seed>``) as
    :data:`RUN_FILES`, and stdout is ``report.txt``. Exit status: 0 on a
    clean run, 1 when a critical audit alert fired (the CI audit gate),
    2 on an unknown experiment name, with no directory created.
    """
    from repro.obs.export import export_chrome_trace, export_jsonl
    from repro.obs.profiler import export_folded, folded_stacks

    try:
        run = run_traced(
            args.scenario, seed=args.seed,
            audit=True, sample=True, profile=True,
        )
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out or f"run_{run.experiment}_{run.seed}")
    out.mkdir(parents=True, exist_ok=True)
    timeline = recovery_timeline(run.system)
    report = "".join(f"{key}: {value}\n" for key, value in run.summary.items())
    report += f"\n{render_recovery_timeline(timeline)}\n"
    (out / "report.txt").write_text(report)
    export_chrome_trace(run.obs, str(out / "trace.json"), label=run.label)
    export_jsonl(run.obs, str(out / "run.jsonl"), label=run.label)
    alerts = run.obs.audit.alerts
    alerts.export_jsonl(str(out / "alerts.jsonl"), label=run.label)
    _write_json(out / "latency.json", {
        "label": run.label,
        "latency": timeline.get("latency"),
        "throughput": timeline.get("throughput"),
    })
    export_folded(folded_stacks(run.obs.spans), str(out / "sim.folded.txt"))
    _write_json(out / "profile.json", run.obs.profiler.report())
    print(report, end="")
    if alerts.has_critical:
        print(f"run: {alerts.count('critical')} critical alert(s)  << VIOLATION",
              file=sys.stderr)
        return 1
    return 0


def run_schedfuzz(args: argparse.Namespace) -> int:
    """The ``schedfuzz`` subcommand: the schedule-space sanitizer.

    Runs the canonical schedule of the traced scenario under the
    auditor, then K perturbed schedules of the same seed with the
    kernel's same-timestamp tie-breaks shuffled, and compares committed
    state fingerprints and audit-alert signatures. On divergence the
    failing decision list is delta-debugged to a minimal replayable
    schedule. ``--out`` saves the JSON artifact; ``--replay`` re-runs a
    saved artifact's minimal schedule. Exit status: 0 when every
    perturbed schedule converges (and a replayed artifact still
    diverges — reproducing is the replay's *success*), 1 on divergence
    (or a replay that no longer reproduces), 2 on usage errors.
    """
    from repro.sanitize.fuzz import replay_artifact, schedfuzz

    if args.replay is not None:
        try:
            with open(args.replay) as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"schedfuzz: cannot read {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        if "divergence" not in document:
            print(f"schedfuzz: {args.replay} records no divergence; "
                  "nothing to replay", file=sys.stderr)
            return 2
        experiment = document.get("experiment", args.scenario)
        seed = int(document.get("seed", args.seed))
        try:
            canonical, replayed, diverged = replay_artifact(
                experiment, seed, document
            )
        except ValueError as exc:
            print(f"schedfuzz: {exc}", file=sys.stderr)
            return 2
        print(f"replay {experiment} seed={seed}: canonical "
              f"{canonical.fingerprint[:16]} vs replayed "
              f"{replayed.fingerprint[:16]}")
        if diverged:
            print("divergence reproduced")
            return 0
        print("divergence did NOT reproduce", file=sys.stderr)
        return 1

    if args.schedules < 1:
        print("schedfuzz: --schedules must be >= 1", file=sys.stderr)
        return 2
    try:
        result = schedfuzz(
            args.scenario, seed=args.seed, schedules=args.schedules,
            races=args.races,
        )
    except ValueError as exc:
        print(f"schedfuzz: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.artifact(), handle, indent=2)
            handle.write("\n")
        print(f"wrote schedule artifact to {args.out}")
    return 1 if result.diverged else 0


#: Subcommand -> handler; any other name is an experiment id
#: (:func:`run_experiments`, which also serves ``all``).
SUBCOMMANDS: dict[str, typing.Callable[[argparse.Namespace], int]] = {
    "list": run_list,
    "all": run_experiments,
    "run": run_scenario,
    "schedfuzz": run_schedfuzz,
}


def main(argv: typing.Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return SUBCOMMANDS.get(args.experiment, run_experiments)(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
