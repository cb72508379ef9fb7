"""Shared plumbing for the experiment modules, and the one path a run takes.

Three things live here and nowhere else:

* :data:`EXPERIMENTS` — the registry: every experiment's module, title
  and *parameter sets*: the ``full``/``small`` scales of its grid and,
  under ``scenarios``, the set each traced scenario runs its world at.
  ``repro list``/``eN``/``all`` and every scenario-running subcommand
  read this one table, so it says what every CLI run of an experiment is.
* scheme construction — :func:`build_scheme` for grid cells,
  :func:`build_traced_scheme` for traced runs (both through
  :func:`repro.baselines.build_system`, the one scheme table, both
  returning ``(kernel, system)``); the latter is the only code that
  knows which probes exist and how they attach.
* :func:`run_traced` — runs a scenario with the probe keywords bound
  into the builder it hands over, and closes the open spans.

An experiment's world is written once: its module's ``scenario(build,
seed, **params) -> (kernel, system, result)`` builds the system with
``build`` (called like :func:`build_scheme`), drives it, and reads
``result`` off — a dict of the numbers it measured. The grid and the
traced run are that one function at two parameter sets, so ``repro
run`` and ``repro schedfuzz`` look at the world the table measured. A
grid cell still needs a module-level adapter around it: cells run
inside worker processes and are pickled by reference, and a kernel and
a system do not cross back — the adapter binds
:func:`build_scheme` and returns what the table needs of ``result``
and the finished system. The pickle boundary is about *where* a world
runs, never *what* runs.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import types
import typing

from repro.baselines import build_system
from repro.net.latency import ConstantLatency
from repro.obs import Observability
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry, sha256
from repro.storage.catalog import Catalog
from repro.system import DatabaseSystem
from repro.txn.config import TxnConfig

#: The traced runs of E10 and E11: one parameter set per experiment, its
#: two scenarios differ in the compared path alone.
_E10_TRACE = dict(
    n_sites=4, n_items=48, duration=400.0, mtbf=600, n_clients=4,
    per_client_streams=True,
)
_E11_TRACE = dict(
    n_sites=4, n_items=32, duration=400.0, mtbf=400, n_clients=4,
    per_client_streams=True,
)

#: id -> ``module`` (under :mod:`repro.harness.experiments`), ``title``,
#: the ``full``/``small`` parameter scales of the CLI's grid (keywords
#: of the module's ``plan``), and ``scenarios``: traced-scenario name ->
#: the keywords its run binds on the module's ``scenario``, baseline
#: first — the order ``repro list`` names an experiment's scenarios
#: in. ``per_client_streams`` is what lets ``repro schedfuzz`` reorder
#: clients without changing their programs; a ``seed_tag`` names the
#: kernel-seed derivation (:func:`tagged_seed`).
EXPERIMENTS: dict[str, dict] = {
    "e1": {
        "module": "e1_availability",
        "title": "availability vs failed sites",
        "full": dict(n_sites=5, replication=3, n_items=12, max_failed=4,
                     load_duration=300.0),
        "small": dict(n_sites=4, replication=2, n_items=8, max_failed=2,
                      load_duration=150.0),
        "scenarios": {"e1": dict(
            seed_tag=("e1-trace",), n_sites=4, replication=2, n_items=8,
            n_clients=3, load_duration=120.0, horizon=150.0,
            per_client_streams=True,
        )},
    },
    "e2": {
        "module": "e2_resume",
        "title": "recovery latency vs missed updates",
        "full": dict(n_items=24, missed_updates=(0, 8, 24, 48)),
        "small": dict(n_items=12, missed_updates=(0, 6, 12)),
        "scenarios": {"e2": dict(
            scheme="rowaa", n_sites=3, n_items=8, missed=6, drain=1500.0,
        )},
    },
    "e3": {
        "module": "e3_overhead",
        "title": "failure-free overhead",
        "full": dict(site_counts=(3, 5, 7), load_duration=400.0, repeats=3),
        "small": dict(site_counts=(3,), load_duration=200.0, repeats=1),
        "scenarios": {"e3": dict(
            scheme="rowaa", n_sites=3, n_items=12, load_duration=150.0,
            n_clients=4, per_client_streams=True,
        )},
    },
    "e4": {
        "module": "e4_copiers",
        "title": "copier scheduling strategies",
        "full": dict(n_items=24, stale_fraction=0.5, read_duration=500.0),
        "small": dict(n_items=12, stale_fraction=0.5, read_duration=250.0),
        "scenarios": {"e4": dict(
            seed_tag=("e4-trace",), mode="eager", n_sites=3, n_items=8,
            stale_fraction=0.5, n_clients=2, read_duration=120.0, horizon=200.0,
            per_client_streams=True,
        )},
    },
    "e5": {
        "module": "e5_identification",
        "title": "out-of-date identification policies",
        "full": dict(n_items=24, update_fractions=(0.125, 0.5, 1.0)),
        "small": dict(n_items=12, update_fractions=(0.25, 1.0)),
        "scenarios": {"e5": dict(
            seed_tag=("e5-trace",), policy="mark-all", n_sites=3, n_items=8,
            fraction=0.5, drain=1500.0,
        )},
    },
    "e6": {
        "module": "e6_multifailure",
        "title": "multiple/cascading failures",
        "full": dict(trials=6),
        "small": dict(trials=2),
        "scenarios": {"e6": dict(drill="crash-during-t1", n_sites=4, n_items=8)},
    },
    "e7": {
        "module": "e7_control_cost",
        "title": "control/status maintenance cost",
        "full": dict(item_counts=(4, 16, 48)),
        "small": dict(item_counts=(4, 16)),
        "scenarios": {"e7": dict(scheme="rowaa", n_sites=3, n_items=8, drain=500.0)},
    },
    "e8": {
        "module": "e8_serializability",
        "title": "one-serializability under failures",
        "full": dict(trials=5, duration=800.0),
        "small": dict(trials=2, duration=400.0),
        "scenarios": {"e8": dict(
            scheme="rowaa", n_sites=3, n_items=8, duration=300.0, mtbf=150,
            mttr=60, n_clients=4, grace=600.0, per_client_streams=True,
        )},
    },
    "e9": {
        "module": "e9_catchup",
        "title": "catch-up transport: log-shipping vs item copy",
        "full": dict(n_items=24, missed_updates=(4, 16, 48)),
        "small": dict(n_items=12, missed_updates=(4, 12)),
        "scenarios": {"e9": dict(
            seed_tag=("e9-trace",), mode="log_ship", truncate=False, n_sites=3,
            n_items=12, missed=6, log_ship_batch=4, drain=400.0,
        )},
    },
    "e10": {
        "module": "e10_commit_modes",
        "title": "commit modes: sync 2PC vs async quorum",
        "full": dict(trials=4, duration=600.0),
        "small": dict(trials=2, duration=300.0),
        "scenarios": {
            "e10sync": {"mode": "sync_2pc", **_E10_TRACE},
            "e10": {"mode": "async_quorum", **_E10_TRACE},
        },
    },
    "e11": {
        "module": "e11_snapshot_reads",
        "title": "snapshot reads vs lock-based reads under failures",
        "full": dict(trials=4, duration=600.0),
        "small": dict(trials=2, duration=300.0),
        "scenarios": {
            "e11sync": {"variant": "locking", **_E11_TRACE},
            "e11": {"variant": "mvcc", **_E11_TRACE},
        },
    },
}


def experiment_module(eid: str) -> types.ModuleType:
    """The experiment's module: ``plan``/``assemble`` (its grid and
    table), ``claims`` (the paper's claims, checked on that table) and
    ``scenario`` (its world, which every cell and every traced run of it
    drives)."""
    return importlib.import_module(
        f"repro.harness.experiments.{EXPERIMENTS[eid]['module']}"
    )


DEFAULT_LATENCY = 1.0
DEFAULT_DETECTION = 5.0


def _build_system(
    kernel: Kernel,
    scheme: str,
    n_sites: int,
    items: dict[str, object],
    catalog: Catalog | None,
    txn_config: TxnConfig | None,
    **kwargs: typing.Any,
) -> DatabaseSystem:
    """The harness's one construction call: :func:`build_system` with
    the harness defaults, on ``kernel``."""
    return build_system(
        scheme,
        kernel,
        n_sites,
        items,
        catalog=catalog,
        latency=ConstantLatency(DEFAULT_LATENCY),
        detection_delay=DEFAULT_DETECTION,
        config=txn_config if txn_config is not None else TxnConfig(rpc_timeout=25.0),
        **kwargs,
    )


def build_scheme(
    scheme: str,
    seed: int,
    n_sites: int,
    items: dict[str, object],
    catalog: Catalog | None = None,
    txn_config: TxnConfig | None = None,
    **kwargs: typing.Any,
) -> tuple[Kernel, DatabaseSystem]:
    """One booted system of the named scheme on a fresh kernel."""
    kernel = Kernel(seed=seed)
    return kernel, _build_system(
        kernel, scheme, n_sites, items, catalog, txn_config, **kwargs
    )


def build_traced_scheme(
    scheme: str,
    seed: int,
    n_sites: int,
    items: dict[str, object],
    catalog: Catalog | None = None,
    txn_config: TxnConfig | None = None,
    audit: bool = False,
    sample: bool = False,
    profile: bool = False,
    schedule: typing.Any = None,
    **kwargs: typing.Any,
) -> tuple[Kernel, DatabaseSystem]:
    """Like :func:`build_scheme`, but with spans + timeline recording on.

    The system's :class:`~repro.obs.Observability` (``system.obs``)
    carries the span tree, timeline instants, and metrics registry for
    export after the scenario runs. This is the one place that knows
    which probes exist and how they attach; a scenario receives it from
    :func:`run_traced` with the probe keywords already bound.

    Every probe attaches through ``kernel.probes`` (its ``attach_*``
    function subscribes it), so any combination rides one run through
    the kernel's one probed drain loop, and each leaves a handle on the
    bundle (``repro run`` attaches the first three). ``audit=True``: a
    :class:`~repro.audit.ProtocolAuditor`, attached before any load
    runs, on ``obs.audit``. ``sample=True``: a windowed time-series
    sampler (:func:`repro.obs.timeseries.attach_sampler`) ticking from
    boot, on ``obs.sampler``. ``profile=True``: a
    host-CPU profiler (:func:`repro.obs.profiler.attach_profiler`), on
    ``obs.profiler``.
    ``schedule`` (a :class:`~repro.sanitize.policy.ScheduleSpec`,
    ``repro schedfuzz``): the kernel's same-timestamp tie-breaks are
    resolved by the spec's policy, attached *before* the system is
    built so boot-time ties are perturbed too, on ``obs.policy``.
    All of it is per kernel: nothing outlives the run, so there is
    nothing to tear down.
    """
    kernel = Kernel(seed=seed)
    obs = Observability(kernel, spans=True, timeline=True)
    if schedule is not None:
        from repro.sanitize.policy import attach_policy

        obs.policy = attach_policy(kernel, schedule)
    system = _build_system(
        kernel, scheme, n_sites, items, catalog, txn_config, obs=obs, **kwargs
    )
    if audit:
        from repro.audit import attach_auditor

        attach_auditor(system)
    if sample:
        from repro.obs.timeseries import attach_sampler

        attach_sampler(system)
    if profile:
        from repro.obs.profiler import attach_profiler

        attach_profiler(system)
    return kernel, system


@dataclasses.dataclass
class TracedRun:
    """A finished scenario run plus its observability bundle."""

    experiment: str
    seed: int
    kernel: Kernel
    system: DatabaseSystem
    obs: Observability
    summary: dict

    @property
    def label(self) -> str:
        """How exports and artifacts name this run."""
        return f"{self.experiment}@seed={self.seed}"


def scenario_names() -> list[str]:
    """Every traced-scenario name of :data:`EXPERIMENTS`, in its order."""
    return [name for spec in EXPERIMENTS.values() for name in spec["scenarios"]]


def traced_scenario(name: str) -> typing.Callable[..., tuple]:
    """The experiment's ``scenario`` at the named traced parameter set,
    as a ``(build, seed)`` callable."""
    for eid, spec in EXPERIMENTS.items():
        if name in spec["scenarios"]:
            return functools.partial(
                experiment_module(eid).scenario, **spec["scenarios"][name]
            )
    raise ValueError(
        f"unknown experiment {name!r}; choose from {', '.join(scenario_names())}"
    )


def run_traced(
    experiment: str | typing.Callable[..., tuple], seed: int = 0, **probes: typing.Any
) -> TracedRun:
    """Run one traced scenario to completion, under the given probes.

    ``experiment`` names a scenario of :data:`EXPERIMENTS`, or is itself
    a callable of the scenario shape ``(build, seed) -> (kernel, system,
    result)``; the run's ``summary`` is ``result`` without its lists.
    ``probes`` are :func:`build_traced_scheme`'s probe
    keywords (``audit``, ``sample``, ``profile``, ``schedule``); they
    are bound into the ``build`` the scenario receives, so a scenario
    never names a probe. The returned run's ``obs`` carries whatever was
    attached (``obs.audit``, ``obs.sampler``, ``obs.profiler``,
    ``obs.policy``).

    Spans still open at the horizon are closed here with
    ``truncated=True`` so exports and critpath see them (idempotent
    after :func:`quiesce`). There is no probe teardown: every probe
    lives on the run's own kernel.
    """
    if callable(experiment):
        scenario, name = experiment, getattr(experiment, "__name__", "custom")
    else:
        scenario, name = traced_scenario(experiment), experiment
    kernel, system, result = scenario(
        functools.partial(build_traced_scheme, **probes), seed
    )
    system.obs.spans.finish_open()
    # A list in ``result`` is raw samples for the grid to pool across
    # trials (E10/E11's latencies), not a summary line.
    summary = {
        key: value for key, value in result.items() if not isinstance(value, list)
    }
    return TracedRun(name, seed, kernel, system, system.obs, summary)


def replicated_catalog(
    n_sites: int, items: typing.Iterable[str], replication: int, seed: int
) -> Catalog:
    """Random ``replication``-way placement over ``n_sites``.

    The placement draws from a dedicated :class:`RngRegistry` stream, so
    it is independent of every other consumer of randomness: the same
    seed yields the same catalog no matter what else an experiment draws
    before or after building it.
    """
    rng = RngRegistry(seed).stream("harness.placement")
    return Catalog.random_placement(
        list(range(1, n_sites + 1)), items, replication, rng
    )


def cell_seed(*parts: object) -> int:
    """Deterministic seed for one experiment cell.

    Unlike ``hash()``, whose value for strings is salted per interpreter
    (``PYTHONHASHSEED``), this is stable across processes and runs — a
    cell gets the same seed whether it executes serially, inside a
    worker pool, or in a fresh interpreter tomorrow.
    """
    text = ":".join(str(part) for part in parts)
    return int.from_bytes(sha256(text.encode())[:4], "big")


def tagged_seed(seed_tag: tuple, seed: int) -> int:
    """The kernel seed of a world whose cells are told apart by more
    than the master seed: :func:`cell_seed` of the tag's experiment
    label, ``seed``, then the rest of the tag (``("e4", mode)`` for a
    grid cell, ``("e4-trace",)`` for the traced run)."""
    return cell_seed(seed_tag[0], seed, *seed_tag[1:])


def settle(kernel: Kernel, system: DatabaseSystem, duration: float) -> None:
    """Advance the clock (detector, control transactions, copiers)."""
    kernel.run(until=kernel.now + duration)


def write_program(item: str, value: object) -> typing.Callable:
    """The user program of one logical write."""

    def program(ctx):
        yield from ctx.write(item, value)

    return program


class Outage(typing.NamedTuple):
    """What :func:`outage` read off at the moment of power-on, and the
    recovery's result."""

    power_at: float
    bytes_before: int  # network bytes sent before the recovery began
    record: typing.Any  # what the system's recovery process returned


def outage(
    kernel: Kernel,
    system: DatabaseSystem,
    victim: int,
    writes: typing.Iterable[tuple[str, object]],
) -> Outage:
    """The outage drill of E2/E4/E5/E9: crash ``victim``, let detection
    and the type-2s settle, commit ``writes`` (``(item, value)`` pairs,
    each a retried user transaction at site 1) that the victim misses,
    then power it on and run its recovery to operational."""
    system.crash(victim)
    settle(kernel, system, 80.0)
    for item, value in writes:
        kernel.run(system.submit_with_retry(1, write_program(item, value), attempts=4))
    bytes_before = system.cluster.network.stats.bytes_sent
    power_at = kernel.now
    return Outage(power_at, bytes_before, kernel.run(system.power_on(victim)))


def wind_down(kernel: Kernel, system: DatabaseSystem) -> None:
    """Stop the housekeeping processes and let the last events land."""
    system.stop()
    kernel.run(until=kernel.now + 10)


def quiesce(kernel: Kernel, system: DatabaseSystem, grace: float = 500.0) -> None:
    """Power every down site back on and let everything drain."""
    for site_id in system.cluster.site_ids:
        if system.cluster.site(site_id).is_down:
            system.power_on(site_id)
    kernel.run(until=kernel.now + grace)
    wind_down(kernel, system)
    # Span hygiene: anything still open at the horizon (an in-flight
    # drain, a 2PC blocked past the grace window) is closed and tagged
    # truncated=True rather than dropped from the exports.
    system.obs.spans.finish_open()
