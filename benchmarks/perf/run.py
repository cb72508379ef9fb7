"""One run of one workload: the command ``BENCHMARK.json`` names.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``

``--trace 0`` (tracing off) measures the end-to-end metrics: one discarded
warm-up rep at a quarter horizon, then five timed reps, each on a fresh
kernel and on its own input stream derived from ``N`` (sub-seed
``1000·N + i``), each preceded by one cold set-up probe in a child
interpreter. Wall metrics are the median of the five; sim-time metrics are
taken over the pooled samples of the five, so they are a function of
``(N, S)`` alone. ``S`` sizes the work, not the rep count: horizons are
the workload's reference horizon times ``S / run_seconds``.

``--trace 1`` measures the per-layer metrics on sub-seed ``1000·N``: one
untraced rep for the counters, one traced rep (program spans + host
profiler) whose counters and samples must equal the untraced ones, and
every micro-driver.

Every metric is printed by name with its unit, direction and bounds; the
last line of standard output is the one JSON object the driver reads,
the line before it (``detail: {...}``) everything else the suite keeps.
Exit code 1 without those lines when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import catalog  # noqa: E402
from benchmarks.perf.spans import SpanRecorder  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    INJECTED,
    WORKLOADS,
    RepResult,
    Workload,
    build,
    run_rep,
    sim_metrics,
)

REPS = 5
WARMUP_SCALE = 0.25
# One repeat of one micro-driver at the reference ``run_seconds``; five
# repeats of the 26 drivers then cost about half of ``run_seconds``.
DRIVER_SLICE_S = 0.04
DRIVER_REPEATS = 5


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


def sub_seed(seed: int, index: int) -> int:
    """The input stream of rep ``index`` of a run with ``--seed seed``."""
    return 1000 * seed + index


def _require_correct(rep: RepResult, what: str) -> None:
    if rep.failures:
        raise CheckFailed(f"{what}: " + "; ".join(rep.failures))


def _require_identical(reference: RepResult, other: RepResult, what: str) -> None:
    """Same seed, fresh kernel: every exact quantity must repeat bit for bit."""
    right = other.exact()
    for label, left in reference.exact().items():
        if left != right[label]:
            raise CheckFailed(f"{what}: {label} differ from the untraced rep of the same seed")


def setup_probe(workload: str, seed: int) -> float:
    """Host seconds of one cold set-up: a child interpreter imports the
    program, builds and boots the system, constructs the generator, exits."""
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    start = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _spread(values: list[float]) -> dict:
    """Median with min, max and quartile distance beside it."""
    if not values:
        return {"median": None, "samples": 0}
    iqr = 0.0
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "iqr": iqr, "samples": len(values)}


def run_untraced(workload: Workload, seed: int, scale: float,
                 spans: SpanRecorder) -> tuple[dict, dict]:
    """The ``--trace 0`` measurement. Returns ``(metrics, detail)``."""
    with spans.span("warmup") as scope:
        run_rep(workload, sub_seed(seed, 0), spans, scope,
                horizon_scale=scale * WARMUP_SCALE, check=False)
    setup_samples: list[float] = []
    reps: list[RepResult] = []
    for index in range(REPS):
        # One probe before each rep, not five in a row, so a slow phase of
        # the host moves one sample and not the median.
        with spans.span(f"setup[{index}]"):
            setup_samples.append(setup_probe(workload.name, sub_seed(seed, index)))
        with spans.span(f"rep[{index}]") as scope:
            rep = run_rep(workload, sub_seed(seed, index), spans, scope, horizon_scale=scale)
        _require_correct(rep, f"rep[{index}]")
        reps.append(rep)
    return end_to_end_metrics(reps, setup_samples)


def end_to_end_metrics(reps: list[RepResult], setup_samples: list[float]) -> tuple[dict, dict]:
    """Medians of the reps' wall quantities beside the pooled sim ones."""
    sim = sim_metrics(reps)
    spreads = {
        "setup_s": _spread(setup_samples),
        "txn_wall_per_s": _spread([rep.client["committed"] / rep.wall_s for rep in reps]),
        "recovery_wall_s": _spread(
            [rep.recovery_wall_s for rep in reps if rep.recovery_wall_s is not None]
        ),
    }
    metrics = {
        **{name: spread["median"] for name, spread in spreads.items()},
        **{name: value for name, value in sim.items() if name in catalog.metrics()},
        # The program's high-water mark: the first full rep, sampled before
        # any checker has run in this process.
        "peak_rss_mb": reps[0].rss_mb,
    }
    detail = {
        "rep_wall_s": [rep.wall_s for rep in reps],
        "spread": spreads,
        "commit_samples": sim["commit_samples"],
        "recovery_samples": sim["recovery_samples"],
        "client": {key: sum(rep.client[key] for rep in reps) for key in reps[0].client},
    }
    return metrics, detail


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(rep: RepResult) -> dict[str, float]:
    """The ``C`` metrics of one rep, from the program's registry snapshot."""
    c = rep.counters.get
    commits = rep.client["committed"]
    dropped = sum(
        c(f"net.dropped_{why}", 0.0) for why in ("dst_down", "src_down", "loss", "partition")
    )
    logical_msgs = c("net.sent", 0.0) - c("rpc.batches", 0.0) + c("rpc.batched_calls", 0.0)
    refreshes, skipped = c("copier.refreshes", 0.0), c("copier.skipped_version", 0.0)
    recoveries = c("recovery.runs", 0.0)
    type2 = c("control.type2_committed", 0.0) + c("control.type2_aborted", 0.0)
    return {
        "sim.events_per_commit": _ratio(c("kernel.events_processed", 0.0), commits),
        "sim.events_wall_per_s": _ratio(c("kernel.events_processed", 0.0), rep.wall_s),
        "net.msgs_per_commit": _ratio(c("net.sent", 0.0), commits),
        "net.bytes_per_commit": _ratio(c("net.bytes_sent", 0.0), commits),
        "net.batched_call_share": _ratio(c("rpc.batched_calls", 0.0), logical_msgs),
        "net.dropped_share": _ratio(dropped, c("net.sent", 0.0)),
        "locks.waits_per_commit": _ratio(c("locks.waits", 0.0), commits),
        "txn.session_mismatch_per_commit": _ratio(c("dm.session_mismatch", 0.0), commits),
        "txn.unreadable_rejections_per_commit": _ratio(c("dm.unreadable_rejections", 0.0), commits),
        "txn.drains_per_commit": _ratio(c("tm.drains_spawned", 0.0), commits),
        "txn.ack_lost": c("tm.commit_ack_lost", 0.0) + c("tm.abort_ack_lost", 0.0),
        "txn.attempt_aborts_per_commit": _ratio(c("txn.aborted", 0.0), commits),
        "wal.records_per_commit": _ratio(c("wal.records_appended", 0.0), commits),
        "wal.flushes_per_commit": _ratio(c("wal.flushes", 0.0), commits),
        "wal.bytes_per_commit": _ratio(c("wal.bytes_flushed", 0.0), commits),
        "wal.records_replayed": c("wal.records_replayed", 0.0),
        "core.recoveries": recoveries,
        "core.copier_refreshes": refreshes,
        "core.copier_skipped_share": _ratio(skipped, refreshes + skipped),
        "core.copier_aborts": c("copier.aborts", 0.0),
        "core.copier_bytes": c("copier.bytes_copied", 0.0),
        "core.marked_items_per_recovery": _ratio(c("recovery.marked_items", 0.0), recoveries),
        "core.type1_attempts_per_recovery": _ratio(c("recovery.type1_attempts", 0.0), recoveries),
        "core.type2_aborted_share": _ratio(c("control.type2_aborted", 0.0), type2),
        "mvcc.ro_served_recovering_share": _ratio(
            c("mvcc.ro_served_while_recovering", 0.0), c("mvcc.ro_served", 0.0)
        ),
        "mvcc.versions_retained": c("mvcc.versions_retained", 0.0),
        "mvcc.gc_reclaimed": c("mvcc.gc_reclaimed", 0.0),
        "site.detector_down_events": c("detector.down_events", 0.0),
        "client.ro_commit_share": _ratio(rep.client["ro_committed"], commits),
        "client.commit_samples": float(len(rep.rw_latencies)),
        "workload.generator_share": _ratio(rep.generator_s, rep.wall_s),
    }


def traced_pair(workload: Workload, seed: int, scale: float,
                spans: SpanRecorder) -> tuple[RepResult, RepResult]:
    """One untraced and one traced rep of the same seed, checked equal."""
    with spans.span("rep[untraced]") as scope:
        plain = run_rep(workload, seed, spans, scope, horizon_scale=scale, time_generator=True)
    _require_correct(plain, "rep[untraced]")
    with spans.span("rep[traced]") as scope:
        traced = run_rep(workload, seed, spans, scope, horizon_scale=scale, traced=True)
    _require_correct(traced, "rep[traced]")
    # Tracing must not perturb the simulation.
    _require_identical(plain, traced, "rep[traced]")
    return plain, traced


def run_traced(workload: Workload, seed: int, scale: float, spans: SpanRecorder,
               with_drivers: bool = True) -> tuple[dict, dict]:
    """The ``--trace 1`` measurement. Returns ``(metrics, detail)``."""
    with spans.span("warmup") as scope:
        run_rep(workload, sub_seed(seed, 0), spans, scope,
                horizon_scale=scale * WARMUP_SCALE, check=False)
    plain, traced = traced_pair(workload, sub_seed(seed, 0), scale, spans)
    drivers = {}
    if with_drivers:
        # Imported here so the set-up probes and --trace 0 runs do not pay for it.
        from benchmarks.perf.drivers import run_drivers

        drivers = run_drivers(spans, DRIVER_SLICE_S * scale, DRIVER_REPEATS)
    return per_layer_metrics(plain, traced, drivers, spans)


def per_layer_metrics(plain: RepResult, traced: RepResult, drivers: dict[str, float],
                      spans: SpanRecorder) -> tuple[dict, dict]:
    """Counters of the untraced rep, the drivers' costs, the traced rep's shares."""
    metrics = counter_metrics(plain)
    metrics.update(drivers)
    metrics["obs.trace_overhead_pct"] = (traced.wall_s / plain.wall_s - 1.0) * 100.0
    metrics["obs.spans_per_commit"] = _ratio(traced.spans_recorded, plain.client["committed"])
    for prefix, shares in (("prof.share.", traced.profile_shares),
                           ("lat.share.", traced.latency_shares)):
        for name in catalog.names("per_layer", prefix):
            metrics[name] = (shares or {}).get(name[len(prefix):], 0.0)
    # The end-to-end metrics that are absent (``None``) on some workload,
    # which the --trace 0 line therefore cannot carry; here over this one rep.
    declared = catalog.names("per_layer")
    metrics.update({k: v for k, v in sim_metrics([plain]).items() if k in declared})
    metrics["recovery_wall_s"] = plain.recovery_wall_s
    detail = {
        "client": plain.client,
        "rep_wall_s": {"untraced": plain.wall_s, "traced": traced.wall_s},
        "phase_self_s": spans.self_times(),
    }
    return metrics, detail


def _print_metrics(values: dict) -> None:
    for name, metric in catalog.metrics().items():
        if name not in values:
            continue
        value = values[name]
        shown = "null" if value is None else f"{value:.6g}"
        line = f"{name:40s} {shown:>14s} {metric.unit:6s} {metric.better:6s} {metric.kind:5s}"
        if metric.bound is not None:
            line += f" bound {metric.bound:.0%}"
        if name in catalog.COMPARE_BOUNDS:
            share, slack = catalog.COMPARE_BOUNDS[name]
            line += f" same-seed {share:.0%}" + (f" or {slack:g} {metric.unit}" if slack else "")
        print(line)


def result_line(values: dict, client: dict, trace: int) -> dict:
    """The one JSON object the driver reads. It takes numbers only, so a
    per-layer metric with no such event (``None``) reads 0 there."""
    section = "per_layer" if trace else "end_to_end"
    return {
        "correct": True,
        "attempted": client["attempted"],
        "failed": client["aborted"] + client["refused"],
        "metrics": {
            name: {"value": values[name] if values[name] is not None else 0.0,
                   "unit": catalog.metrics()[name].unit}
            for name in catalog.names(section) if name in values
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the work (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE", help="write the bench-side spans here at exit")
    # For the suite, which runs the workload-independent drivers once.
    parser.add_argument("--no-drivers", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides dict and set layout, hence timing: pin it,
        # as the issue prescribes for every child interpreter.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    if args.setup_probe:
        build(workload, args.seed)
        return 0

    run_seconds = catalog.contract()["run_seconds"]
    scale = (args.seconds if args.seconds is not None else run_seconds) / run_seconds
    spans = SpanRecorder(workload.name)
    try:
        if args.trace:
            values, detail = run_traced(workload, args.seed, scale, spans, not args.no_drivers)
        else:
            values, detail = run_untraced(workload, args.seed, scale, spans)
    except CheckFailed as failure:
        print(f"FAILED {workload.name}: {failure}", file=sys.stderr)
        return 1
    finally:
        if args.spans:
            spans.write(args.spans)

    why = next(w["why"] for w in catalog.contract()["workloads"] if w["name"] == workload.name)
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {why}")
    _print_metrics(values)
    detail.update(
        workload=workload.name, seed=args.seed, trace=args.trace, metrics=values,
        injected=INJECTED, horizon=workload.horizon * scale,
    )
    print("detail: " + json.dumps(detail))
    print(json.dumps(result_line(values, detail["client"], args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
