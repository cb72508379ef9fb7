"""The six reference workloads and the one function that runs a rep of any.

A workload is data: a :class:`Workload` names the generator spec, the
system configuration, where clients are homed, the load horizon and a
fault script. :func:`run_rep` builds a fresh system from it, drives the
load and the faults *from outside* in phases (so the bench-side span
recorder sees ``load`` / ``fault:<site>`` / ``recover:<site>`` /
``drain``), checks the outputs, and returns the rep's samples and
counters; :func:`sim_metrics` pools the samples of several reps.

Nothing here reaches ``src/`` except generated inputs: no workload name,
no seed-dependent switch. Only public entry points of ``repro`` are used
(``--selftest`` AST-scans this package for underscore access and for
``repro.harness`` / ``repro.cli`` imports).
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import math
import random
import resource
import time
import typing

from repro.baselines import build_rowaa_system
from repro.core.config import RowaaConfig
from repro.histories import check_one_sr
from repro.net.latency import ConstantLatency
from repro.obs import Observability
from repro.obs.critpath import latency_budget
from repro.obs.profiler import attach_profiler
from repro.sim import Kernel
from repro.txn.config import TxnConfig
from repro.wal import WalConfig
from repro.workload import (
    ClientPool,
    FailureEvent,
    FailureSchedule,
    WorkloadGenerator,
    WorkloadSpec,
)

from benchmarks.perf.spans import SpanRecorder

# Injected delays, stated in every output (sim time units).
N_SITES = 3
ONE_WAY_LATENCY = 1.0
DETECTION_DELAY = 5.0
THINK_TIME = 1.0
N_CLIENTS = 8
OPS_PER_TXN = 4
# Sim-time granularity at which the bench polls "is the site current yet"
# after a power-on; it bounds the overshoot of ``recover:<site>`` spans.
RECOVERY_POLL = 2.0
QUIESCE_GRACE = 500.0
DRAIN_LIMIT = 20_000.0

INJECTED = {
    "sites": N_SITES,
    "replication": "full",
    "latency": f"ConstantLatency({ONE_WAY_LATENCY}) sim units one-way",
    "detection_delay": DETECTION_DELAY,
    "think_time": THINK_TIME,
    "clients": N_CLIENTS,
    "ops_per_txn": OPS_PER_TXN,
    "loop": "closed",
}


FaultScript = typing.Callable[[float], typing.Iterable[FailureEvent]]


def _no_faults(horizon: float) -> list[FailureEvent]:
    return []


@dataclasses.dataclass(frozen=True)
class Workload:
    """One fixed set of inputs. Why it exists is recorded once, beside its
    name in ``BENCHMARK.json`` (and at length in README.md)."""

    name: str
    spec: WorkloadSpec
    # Sim units of load in one rep at the reference ``run_seconds``.
    horizon: float
    txn: TxnConfig = dataclasses.field(default_factory=TxnConfig)
    rowaa: RowaaConfig = dataclasses.field(default_factory=RowaaConfig)
    home_sites: tuple[int, ...] = (1, 2, 3)
    # The crashes and power-ons of a rep of the given horizon.
    faults: FaultScript = _no_faults


def _alternating_outages(
    first: float, every: float, downtime: float, sites: typing.Sequence[int]
) -> FaultScript:
    """From ``first`` on, every ``every`` units the next of ``sites`` (in
    turn) goes down for ``downtime``; never two at once, and the last
    outage ends inside the horizon. A longer rep has more outages, not
    longer ones."""

    def script(horizon: float) -> list[FailureEvent]:
        events = []
        start, index = first, 0
        while start + downtime < horizon:
            site = sites[index % len(sites)]
            events.append(FailureEvent(start, "crash", site))
            events.append(FailureEvent(start + downtime, "power_on", site))
            start += every
            index += 1
        return events

    return script


def _one_outage(site: int, down_at: float, up_at: float) -> FaultScript:
    """One outage from ``down_at`` to ``up_at``, both as shares of the
    horizon: a longer rep has a longer outage."""

    def script(horizon: float) -> list[FailureEvent]:
        return [
            FailureEvent(round(down_at * horizon), "crash", site),
            FailureEvent(round(up_at * horizon), "power_on", site),
        ]

    return script


def _spec(**kwargs: typing.Any) -> WorkloadSpec:
    return WorkloadSpec(ops_per_txn=OPS_PER_TXN, read_modify_write=True, **kwargs)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady_rw",
            spec=_spec(n_items=256, write_fraction=0.3),
            horizon=1200.0,
        ),
        Workload(
            name="steady_rw_async",
            spec=_spec(n_items=256, write_fraction=0.3),
            horizon=560.0,
            txn=TxnConfig(commit_mode="async_quorum"),
        ),
        Workload(
            name="hot_contention",
            spec=_spec(n_items=16, write_fraction=0.5, zipf_s=1.0),
            horizon=7500.0,
        ),
        Workload(
            name="crash_churn",
            spec=_spec(n_items=128, write_fraction=0.5),
            horizon=4000.0,
            rowaa=RowaaConfig(identify_mode="fail-locks"),
            home_sites=(1,),
            faults=_alternating_outages(200.0, 200.0, 120.0, (3, 2)),
        ),
        Workload(
            name="long_outage_catchup",
            spec=_spec(n_items=1024, write_fraction=1.0),
            horizon=1500.0,
            home_sites=(1, 2),
            faults=_one_outage(3, 0.45, 0.85),
        ),
        Workload(
            name="snapshot_read_mostly",
            spec=_spec(n_items=256, write_fraction=0.3, ro_fraction=0.9),
            horizon=1800.0,
            faults=_alternating_outages(300.0, 600.0, 200.0, (3,)),
        ),
    )
}


def percentile(values: typing.Sequence[float], p: float) -> float | None:
    """Nearest-rank percentile, ``None`` when empty.

    The bench keeps its own so a change to the program's percentile
    helper cannot move a benchmark number.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


@dataclasses.dataclass
class RepResult:
    """Everything one rep produced."""

    wall_s: float
    recovery_wall_s: float | None
    generator_s: float
    # ``ru_maxrss`` right after the timed region, before this rep's check
    # (the 1-SR checker's graph can outweigh the whole program).
    rss_mb: float
    horizon: float
    client: dict[str, int]
    # Begin→ack latencies of committed RW transactions, and per recovery
    # power-on → operational and power-on → current; all in sim units.
    rw_latencies: list[float]
    operational: list[float]
    current: list[float]
    counters: dict[str, float]
    failures: list[str]
    profile_shares: dict[str, float] | None = None
    latency_shares: dict[str, float] | None = None
    spans_recorded: int = 0

    def exact(self) -> dict[str, typing.Any]:
        """What the seed alone decides: equal for two reps of one seed."""
        return {
            "client outcomes": self.client,
            "commit latencies": self.rw_latencies,
            "recovery times": (self.operational, self.current),
            "counters": self.counters,
        }


class _TimedGenerator(WorkloadGenerator):
    """Accumulates host time spent generating programs (``generator_share``).

    Forked children report into the root, so one number covers all
    per-client streams.
    """

    def __init__(self, spec: WorkloadSpec, rng: random.Random, root=None) -> None:
        super().__init__(spec, rng)
        self.root = root if root is not None else self
        self.spent_s = 0.0

    def fork(self, index: int) -> "_TimedGenerator":
        child = super().fork(index)  # the program's own stream derivation
        return _TimedGenerator(child.spec, child.rng, self.root)

    def next_program(self) -> typing.Callable:
        start = time.perf_counter()
        program = super().next_program()
        self.root.spent_s += time.perf_counter() - start
        return program


def build(
    workload: Workload, seed: int, traced: bool = False, time_generator: bool = False
):
    """Fresh kernel + booted system + generator + client pool (the cold set-up)."""
    kernel = Kernel(seed=seed)
    obs = Observability(kernel, spans=True, timeline=True) if traced else None
    system = build_rowaa_system(
        kernel,
        N_SITES,
        workload.spec.initial_items(),
        rowaa_config=dataclasses.replace(workload.rowaa),
        config=dataclasses.replace(workload.txn),
        wal_config=WalConfig(),
        latency=ConstantLatency(ONE_WAY_LATENCY),
        detection_delay=DETECTION_DELAY,
        obs=obs,
    )
    if traced:
        attach_profiler(system)
    generator_class = _TimedGenerator if time_generator else WorkloadGenerator
    generator = generator_class(workload.spec, random.Random(seed))
    pool = ClientPool(
        system,
        generator,
        N_CLIENTS,
        think_time=THINK_TIME,
        home_sites=workload.home_sites,
        per_client_streams=True,
    )
    return kernel, system, generator, pool


def _is_current(system, site_id: int) -> bool:
    return (
        system.cluster.site(site_id).is_operational
        and system.copiers[site_id].drained_at is not None
    )


def _drive(workload, kernel, system, pool, horizon, spans, scope):
    """Load + fault script + quiesce. Returns host seconds of the last
    power-on → fully-current interval (``None`` if no site got there)."""
    recovery_wall_s = None
    open_faults: dict[int, int] = {}
    events = list(FailureSchedule(workload.faults(horizon)))
    with spans.span("load", scope) as load:
        pool.start(horizon)
        for index, event in enumerate(events):
            kernel.run(until=event.time)
            if event.action == "crash":
                system.crash(event.site_id)
                open_faults[event.site_id] = spans.start(f"fault:{event.site_id}", load)
                continue
            spans.finish(open_faults.pop(event.site_id))
            # Poll until the site is current, but never run past the next
            # scripted fault; after the last one the clients' deadline is
            # no limit, so a long catch-up is timed to its end.
            limit = (
                events[index + 1].time if index + 1 < len(events)
                else horizon + DRAIN_LIMIT
            )
            with spans.span(f"recover:{event.site_id}", load):
                started = time.perf_counter()
                system.power_on(event.site_id)
                while not _is_current(system, event.site_id) and kernel.now < limit:
                    kernel.run(until=min(limit, kernel.now + RECOVERY_POLL))
                if _is_current(system, event.site_id):
                    recovery_wall_s = time.perf_counter() - started
        kernel.run(until=max(horizon, kernel.now))
    with spans.span("drain", scope):
        # Quiesce: everything powered, every copy current, then let
        # in-flight work and background drains finish.
        for site_id in system.cluster.site_ids:
            if system.cluster.site(site_id).is_down:
                system.power_on(site_id)
        limit = kernel.now + DRAIN_LIMIT
        while kernel.now < limit and any(system.unreadable_counts().values()):
            kernel.run(until=kernel.now + 50.0)
        kernel.run(until=kernel.now + QUIESCE_GRACE)
        system.stop()
        kernel.run(until=kernel.now + 10.0)
    return recovery_wall_s


def _recovery_times(system) -> tuple[list[float], list[float]]:
    """Per recovery: power-on → operational and power-on → zero unreadable
    copies at that site, from the records and the ``recovery.unreadable``
    drain series."""
    series = system.obs.registry.snapshot()["series"]
    operational: list[float] = []
    current: list[float] = []
    for record in system.recovery_records():
        if record.time_to_operational is None:
            continue
        operational.append(record.time_to_operational)
        points = series.get(f"recovery.unreadable@{record.site_id}", [])
        drained = [t for t, left in points if t >= record.operational_at and left == 0]
        if drained:
            current.append(drained[0] - record.power_on_at)
    return operational, current


def _check(workload, system, pool) -> list[str]:
    """Output checks; an empty list means the rep is correct."""
    failures = []
    result = check_one_sr(system.recorder)
    if not result.ok:
        failures.append(f"history is not 1-SR: {result}")
    down = [
        s for s in system.cluster.site_ids if not system.cluster.site(s).is_operational
    ]
    if down:
        failures.append(f"sites not operational after quiesce: {down}")
    if any(system.unreadable_counts().values()):
        failures.append(f"unreadable copies after quiesce: {system.unreadable_counts()}")
    for item in workload.spec.item_names():
        values = {system.copy_value(s, item) for s in system.cluster.site_ids}
        if len(values) != 1:
            failures.append(f"copies of {item} disagree: {sorted(map(str, values))}")
            break
    stats = pool.stats
    if stats.attempted != stats.committed + stats.aborted + stats.refused:
        failures.append("attempted != committed + aborted + refused")
    if stats.committed == 0:
        failures.append("no transaction committed")
    return failures


def _rw_latencies(stats) -> list[float]:
    # RO commits append to both latency lists, so the RW latencies are
    # the multiset difference.
    rw = collections.Counter(stats.latencies)
    rw.subtract(collections.Counter(stats.ro_latencies))
    return sorted(rw.elements())


def sim_metrics(reps: typing.Sequence[RepResult]) -> dict[str, float | int | None]:
    """The exact end-to-end metrics over the pooled samples of ``reps``."""
    latencies = sorted(x for rep in reps for x in rep.rw_latencies)
    operational = [x for rep in reps for x in rep.operational]
    current = [x for rep in reps for x in rep.current]
    committed = sum(rep.client["committed"] for rep in reps)
    return {
        "txn_per_sim_kunit": committed / sum(rep.horizon for rep in reps) * 1000.0,
        "commit_sim_mean": sum(latencies) / len(latencies) if latencies else None,
        "commit_sim_p50": percentile(latencies, 50),
        "commit_sim_p99": percentile(latencies, 99),
        "commit_samples": len(latencies),
        "committed_share": committed / sum(rep.client["attempted"] for rep in reps),
        "recovery_operational_sim_p50": percentile(operational, 50),
        "recovery_operational_sim_max": max(operational, default=None),
        "recovery_current_sim_p50": percentile(current, 50),
        "recovery_current_sim_max": max(current, default=None),
        "recovery_samples": len(operational),
    }


def run_rep(
    workload: Workload,
    seed: int,
    spans: SpanRecorder,
    scope: int | None = None,
    horizon_scale: float = 1.0,
    traced: bool = False,
    time_generator: bool = False,
    check: bool = True,
) -> RepResult:
    """One rep on a fresh kernel. Set-up and checks are outside the timed region."""
    horizon = max(100.0, round(workload.horizon * horizon_scale))
    kernel, system, generator, pool = build(workload, seed, traced, time_generator)
    gc.collect()
    started = time.perf_counter()
    recovery_wall_s = _drive(workload, kernel, system, pool, horizon, spans, scope)
    wall_s = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with spans.span("check", scope):
        failures = _check(workload, system, pool) if check else []
    stats = pool.stats
    operational, current = _recovery_times(system)
    result = RepResult(
        wall_s=wall_s,
        # Host time of a recovery is reported where there is exactly one
        # long one; over many short ones it is timer noise.
        recovery_wall_s=recovery_wall_s if len(operational) == 1 else None,
        generator_s=getattr(generator, "spent_s", 0.0),
        rss_mb=rss_mb,
        horizon=horizon,
        client={
            "attempted": stats.attempted,
            "committed": stats.committed,
            "aborted": stats.aborted,
            "refused": stats.refused,
            "ro_committed": stats.ro_committed,
        },
        rw_latencies=_rw_latencies(stats),
        operational=operational,
        current=current,
        counters=dict(system.obs.registry.snapshot()["global"]),
        failures=failures,
    )
    if traced:
        result.profile_shares = dict(system.obs.profiler.shares())
        budget = latency_budget(system.obs)
        result.latency_shares = {
            name: row["share"] for name, row in budget.get("categories", {}).items()
        }
        result.spans_recorded = len(system.obs.spans.spans)
    return result
