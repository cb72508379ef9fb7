"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro e1 [--seed 3] [--scale small|full] [--jobs 4]
    python -m repro all --scale small --jobs 4
    python -m repro trace --experiment e2 --out trace.json [--jsonl spans.jsonl]
    python -m repro metrics --experiment e2 [--out metrics.json]
    python -m repro audit --experiment e2 [--out alerts.jsonl]
    python -m repro latency --experiment e10 [--out budget.json] [--series ts.jsonl]
    python -m repro profile --experiment e11 [--folded f.txt]
        [--speedscope s.json] [--out prof.json]
    python -m repro schedfuzz --experiment e2 [--schedules 8] [--races]
        [--out schedules.json | --replay schedules.json]
    python -m repro lint [--json] [--changed]

Each experiment prints the table documented in EXPERIMENTS.md and one
line per paper claim checked on it (exit 1 if any fails); ``small`` scale
finishes in a few seconds per experiment, ``full`` matches the recorded
tables. ``--jobs N`` fans the (scheme × seed × config) cell
grid across a process pool — results are identical to a serial run
(cells are pure functions of their arguments). Performance is measured
by the reference benchmark, not from here: ``python -m benchmarks.perf``
(``BENCHMARK.json``, ``benchmarks/perf/README.md``).

``trace`` and ``metrics`` run one small traced scenario of an experiment
(spans + timeline on; see :func:`repro.harness.runner.run_traced`) and
export the observability stream: ``trace`` writes a Chrome trace-event
file for chrome://tracing or https://ui.perfetto.dev (plus optionally
the raw JSONL stream), ``metrics`` a metrics-registry snapshot; both
print the recovery-timeline report.

``latency`` runs a traced scenario with the windowed time-series
sampler on and prints the critical-path **latency budget**
(:mod:`repro.obs.critpath`): end-to-end ack latency decomposed into
lock wait / execution / WAL stall / network / prepare wait / decision
broadcast, with p50/p99 and share-of-total per category, plus the
per-outage throughput troughs (:mod:`repro.obs.timeseries`). For
``--experiment e10`` it runs *both* commit modes (async fast path and
the sync baseline) so the budget tables line up side by side;
``--out`` saves the machine-readable JSON and ``--series`` the sampled
time-series JSONL.

``profile`` runs a traced scenario with the **host-CPU profiler**
(:mod:`repro.obs.profiler`): stdlib ``cProfile`` switched on for the
kernel's drain loops, its exclusive time folded per subsystem
(kernel/net/tm/dm/locks/wal/copier/mvcc/audit/obs/workload) into a
table whose rows sum to cProfile's total ``tottime``, each with its
hottest function. ``--folded``/``--speedscope`` export the *sim-time*
flamegraph collapsed from the span tree; ``--out`` saves everything as
JSON. What the probes cost is the reference benchmark's
``obs.trace_overhead_pct`` (its traced rep runs with spans, timeline and
this profiler on).

``audit`` runs the same traced scenario under the online protocol
auditor (:mod:`repro.audit`): live 1-STG cycle detection, session
coherence, missing-list conservatism, ROWAA write coverage, WAL/durable
coherence, and liveness watchdogs. It exports the structured alert
stream as JSONL, prints the auditor summary table and the
recovery-timeline report, and exits non-zero when any **critical**
alert fired — which is exactly the CI audit gate.

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

``lint`` runs replint (:mod:`repro.lint`), the AST-based static
analysis enforcing the same invariants the auditor checks dynamically
(determinism, protocol isolation, durable-write discipline) over *all*
code paths. Exit 0 clean, 1 on error findings, 2 on usage errors —
see ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.harness import parallel
from repro.harness.runner import EXPERIMENTS, TracedRun, experiment_module, run_traced
from repro.lint.cli import run_lint
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
        help="trace/metrics/audit/latency/profile/schedfuzz/lint: write "
        "this run's output to a standalone file (trace default: "
        "trace.json; audit default: alerts.jsonl)",
    )
    # Options of the scenario-running subcommands (ignored elsewhere).
    parser.add_argument(
        "--experiment", dest="scenario", type=str.lower, default="e2",
        metavar="EID",
        help="trace/metrics/audit/latency/profile/schedfuzz: which "
        "experiment's traced scenario to run (default: e2; latency runs "
        "every scenario of e10/e11, baseline first)",
    )
    parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="trace: also write the raw JSONL span/metric stream here",
    )
    parser.add_argument(
        "--sample-period", type=float, default=None, metavar="T",
        help="trace/latency: attach the windowed time-series sampler "
        "with this period in sim-time units (latency default: 10)",
    )
    parser.add_argument(
        "--series", default=None, metavar="PATH",
        help="latency: write the sampled time series as JSONL here "
        "(both modes appended for e10)",
    )
    # profile-only options (ignored by the other subcommands).
    parser.add_argument(
        "--folded", default=None, metavar="PATH",
        help="profile: write the sim-time flamegraph as flamegraph.pl "
        "collapsed folded stacks",
    )
    parser.add_argument(
        "--speedscope", default=None, metavar="PATH",
        help="profile: write the sim-time flamegraph as speedscope JSON "
        "(open at https://www.speedscope.app)",
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
        "--no-shrink", action="store_true",
        help="schedfuzz: skip delta-debugging the failing decision list",
    )
    parser.add_argument(
        "--shrink-budget", type=int, default=48, metavar="N",
        help="schedfuzz: max scenario re-runs spent shrinking (default 48)",
    )
    parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="schedfuzz: re-run the minimal schedule from a previously "
        "exported artifact instead of fuzzing",
    )
    # lint-only options (ignored by the other subcommands).
    parser.add_argument(
        "--json", action="store_true",
        help="lint: emit the machine-readable JSON report",
    )
    parser.add_argument(
        "--path", action="append", default=None, metavar="PATH",
        help="lint: file or directory to analyse (repeatable; default: "
        "the installed repro package sources)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="lint: comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="lint: only analyse files that differ from the given git ref "
        "(default ref: HEAD); untracked files are included",
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


def _run_scenario(
    args: argparse.Namespace, scenario: str | None = None, **probes: typing.Any
) -> TracedRun | None:
    """Run a traced scenario for the subcommand named in ``args.experiment``.

    The front half the scenario-running subcommands share: an unknown
    experiment id prints ``<subcommand>: …`` to stderr and yields None
    (the caller exits 2).
    """
    try:
        return run_traced(scenario or args.scenario, seed=args.seed, **probes)
    except ValueError as exc:
        print(f"{args.experiment}: {exc}", file=sys.stderr)
        return None


def _print_report(
    run: TracedRun, lines: typing.Mapping, skip: tuple[str, ...] = ()
) -> None:
    """The shared back half: ``key: value`` lines, then the
    recovery-timeline report (minus the sections in ``skip``)."""
    for key, value in lines.items():
        print(f"{key}: {value}")
    print()
    timeline = recovery_timeline(run.system)
    for section in skip:
        timeline.pop(section, None)
    print(render_recovery_timeline(timeline))


def run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: traced scenario -> Chrome trace file."""
    from repro.obs.export import export_chrome_trace, export_jsonl

    run = _run_scenario(args, sample_period=args.sample_period)
    if run is None:
        return 2
    out = args.out or "trace.json"
    n_events = export_chrome_trace(run.obs, out, label=run.label)
    recorder = run.obs.spans
    print(f"{out}: {n_events} trace events ({len(recorder.spans)} spans, "
          f"{len(recorder.instants)} instants) — open in chrome://tracing "
          "or https://ui.perfetto.dev")
    if args.jsonl:
        n_lines = export_jsonl(run.obs, args.jsonl, label=run.label)
        print(f"{args.jsonl}: {n_lines} JSONL lines")
    _print_report(run, run.summary)
    return 0


def run_metrics(args: argparse.Namespace) -> int:
    """The ``metrics`` subcommand: traced scenario -> registry snapshot."""
    from repro.obs.export import export_metrics_json

    run = _run_scenario(args)
    if run is None:
        return 2
    if args.out:
        export_metrics_json(run.obs, args.out, label=run.label)
        print(f"wrote metrics snapshot to {args.out}")
    _print_report(run, dict(sorted(run.obs.registry.snapshot()["global"].items())))
    return 0


def run_latency(args: argparse.Namespace) -> int:
    """The ``latency`` subcommand: critical-path budget + time series.

    Runs the traced scenario with the windowed sampler attached, prints
    the per-category latency budget and per-outage throughput troughs.
    Given an experiment id with several scenarios in the registry
    (``e10``: ``e10sync`` baseline then ``e10`` async; likewise
    ``e11``) it runs them back to back on the same seed. Exit status:
    0 on success, 2 on an unknown experiment name.
    """
    import json

    from repro.obs.critpath import latency_budget, render_latency_budget
    from repro.obs.timeseries import (
        export_series_jsonl,
        outage_stats,
        render_outage_stats,
    )

    period = args.sample_period if args.sample_period is not None else 10.0
    scenarios = EXPERIMENTS.get(args.scenario, {}).get("scenarios", [args.scenario])
    budgets: dict[str, dict] = {}
    troughs: dict[str, dict] = {}
    for index, scenario in enumerate(scenarios):
        run = _run_scenario(args, scenario, sample_period=period)
        if run is None:
            return 2
        mode = run.summary.get("commit_mode")
        print(f"== {scenario}" + (f" ({mode})" if mode else ""))
        budget = latency_budget(run.obs)
        budgets[scenario] = budget
        print(render_latency_budget(budget))
        sampler = run.obs.sampler
        if sampler is not None and sampler.windows:
            stats = outage_stats(sampler)
            troughs[scenario] = stats
            for line in render_outage_stats(stats):
                print(line)
            if args.series:
                n_lines = export_series_jsonl(
                    sampler, args.series, label=run.label, append=index > 0
                )
                print(f"{args.series}: +{n_lines} JSONL lines")
        print()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "experiment": args.scenario,
                    "seed": args.seed,
                    "sample_period": period,
                    "budgets": budgets,
                    "throughput": troughs,
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote latency budget to {args.out}")
    return 0


def run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: host-CPU attribution + flamegraphs.

    Runs the traced scenario under the host-CPU profiler (``cProfile``
    over the kernel's drain loops) and prints the per-subsystem
    attribution table (also folded into the recovery-timeline report
    for any profiled run). ``--folded`` / ``--speedscope`` export the
    sim-time flamegraph collapsed from the span tree; ``--out`` saves
    the machine-readable JSON. Exit status: 0 on success, 2 on an
    unknown experiment name.
    """
    import json

    from repro.obs.profiler import (
        export_folded,
        export_speedscope,
        folded_stacks,
        render_profile,
    )

    run = _run_scenario(args, profile=True)
    if run is None:
        return 2
    report = run.obs.profiler.report()
    print(render_profile(report))
    sim_folded = folded_stacks(run.obs.spans)
    if args.speedscope:
        n_stacks = export_speedscope(run.obs.spans, args.speedscope, label=run.label)
        print(f"{args.speedscope}: speedscope profile, {n_stacks} sim-time "
              "stacks — open at https://www.speedscope.app")
    if args.folded:
        n_lines = export_folded(sim_folded, args.folded)
        print(f"{args.folded}: {n_lines} folded sim-time stacks "
              "(flamegraph.pl collapsed format)")
    if args.out:
        document: dict = {
            "experiment": run.experiment,
            "seed": args.seed,
            "host": report,
            "sim_folded": [
                {"stack": list(stack), "sim_time": value}
                for stack, value in sorted(sim_folded.items())
            ],
        }
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote profile to {args.out}")
    _print_report(run, run.summary, skip=("profile",))  # the table led the output
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
    import json

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
            shrink=not args.no_shrink, races=args.races,
            shrink_budget=args.shrink_budget,
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


def run_audit(args: argparse.Namespace) -> int:
    """The ``audit`` subcommand: traced scenario under the auditor.

    Exit status: 0 when no critical alert fired, 1 on any critical
    alert (the CI audit gate), 2 on an unknown experiment name.
    """
    run = _run_scenario(args, audit=True)
    if run is None:
        return 2
    auditor = run.obs.audit
    summary = auditor.summary()
    out = args.out or "alerts.jsonl"
    n_lines = auditor.alerts.export_jsonl(out, label=run.label)
    print(f"{out}: {n_lines} JSONL lines")
    print(auditor.alerts.render_summary())
    _print_report(run, run.summary)
    if auditor.alerts.has_critical:
        print(
            f"audit: {summary['critical']} critical alert(s)  << VIOLATION",
            file=sys.stderr,
        )
        return 1
    return 0


#: Subcommand -> handler; any other name is an experiment id
#: (:func:`run_experiments`, which also serves ``all``).
SUBCOMMANDS: dict[str, typing.Callable[[argparse.Namespace], int]] = {
    "list": run_list,
    "all": run_experiments,
    "trace": run_trace,
    "metrics": run_metrics,
    "audit": run_audit,
    "latency": run_latency,
    "profile": run_profile,
    "schedfuzz": run_schedfuzz,
    "lint": run_lint,
}


def main(argv: typing.Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return SUBCOMMANDS.get(args.experiment, run_experiments)(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
