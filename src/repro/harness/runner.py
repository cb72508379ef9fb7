"""Shared plumbing for the experiment modules, and the one path a run takes.

Three things live here and nowhere else:

* :data:`EXPERIMENTS` — the registry: every experiment's module, title,
  CLI scales and traced scenarios. ``repro list``/``eN``/``all`` and
  every scenario-running subcommand read this one table.
* scheme construction — :func:`build_scheme` for grid cells,
  :func:`build_traced_scheme` for traced runs (both through
  :func:`repro.baselines.build_system`, the one scheme table); the
  latter is the only code that knows which probes exist and how they
  attach.
* :func:`run_traced` — runs a traced scenario with the probe keywords
  bound into the builder it hands over, and closes the open spans.

The experiment grids are no good for ``repro trace`` and friends: their
cells run inside worker processes, where the
:class:`~repro.obs.Observability` bundle (and its span stream) would be
lost at the pickle boundary. Each experiment module therefore exposes a
``traced_scenario(build, seed, ...)`` that mirrors one representative
cell of its grid on a small configuration, calls ``build`` exactly like
:func:`build_traced_scheme` (minus the probe keywords) and returns
``(kernel, system, obs, summary)`` — ``summary`` being a small dict of
the numbers the mirrored cell would have reported.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import types
import typing

from repro.baselines import build_system
from repro.net.latency import ConstantLatency
from repro.obs import Observability
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.storage.catalog import Catalog
from repro.system import DatabaseSystem
from repro.txn.config import TxnConfig

#: id -> ``module`` (under :mod:`repro.harness.experiments`), ``title``,
#: the ``full``/``small`` parameter scales of the CLI, and ``scenarios``:
#: traced-scenario name -> extra keywords of the module's
#: ``traced_scenario``, baseline first — the order ``repro latency``
#: runs an experiment's scenarios in.
EXPERIMENTS: dict[str, dict] = {
    "e1": {
        "module": "e1_availability",
        "title": "availability vs failed sites",
        "full": dict(n_sites=5, replication=3, n_items=12, max_failed=4,
                     load_duration=300.0),
        "small": dict(n_sites=4, replication=2, n_items=8, max_failed=2,
                      load_duration=150.0),
        "scenarios": {"e1": {}},
    },
    "e2": {
        "module": "e2_resume",
        "title": "recovery latency vs missed updates",
        "full": dict(n_items=24, missed_updates=(0, 8, 24, 48)),
        "small": dict(n_items=12, missed_updates=(0, 6, 12)),
        "scenarios": {"e2": {}},
    },
    "e3": {
        "module": "e3_overhead",
        "title": "failure-free overhead",
        "full": dict(site_counts=(3, 5, 7), load_duration=400.0, repeats=3),
        "small": dict(site_counts=(3,), load_duration=200.0, repeats=1),
        "scenarios": {"e3": {}},
    },
    "e4": {
        "module": "e4_copiers",
        "title": "copier scheduling strategies",
        "full": dict(n_items=24, stale_fraction=0.5, read_duration=500.0),
        "small": dict(n_items=12, stale_fraction=0.5, read_duration=250.0),
        "scenarios": {"e4": {}},
    },
    "e5": {
        "module": "e5_identification",
        "title": "out-of-date identification policies",
        "full": dict(n_items=24, update_fractions=(0.125, 0.5, 1.0)),
        "small": dict(n_items=12, update_fractions=(0.25, 1.0)),
        "scenarios": {"e5": {}},
    },
    "e6": {
        "module": "e6_multifailure",
        "title": "multiple/cascading failures",
        "full": dict(trials=6),
        "small": dict(trials=2),
        "scenarios": {"e6": {}},
    },
    "e7": {
        "module": "e7_control_cost",
        "title": "control/status maintenance cost",
        "full": dict(item_counts=(4, 16, 48)),
        "small": dict(item_counts=(4, 16)),
        "scenarios": {"e7": {}},
    },
    "e8": {
        "module": "e8_serializability",
        "title": "one-serializability under failures",
        "full": dict(trials=5, duration=800.0),
        "small": dict(trials=2, duration=400.0),
        "scenarios": {"e8": {}},
    },
    "e9": {
        "module": "e9_catchup",
        "title": "catch-up transport: log-shipping vs item copy",
        "full": dict(n_items=24, missed_updates=(4, 16, 48)),
        "small": dict(n_items=12, missed_updates=(4, 12)),
        "scenarios": {"e9": {}},
    },
    "e10": {
        "module": "e10_commit_modes",
        "title": "commit modes: sync 2PC vs async quorum",
        "full": dict(trials=4, duration=600.0),
        "small": dict(trials=2, duration=300.0),
        "scenarios": {
            "e10sync": {"mode": "sync_2pc"},
            "e10": {"mode": "async_quorum"},
        },
    },
    "e11": {
        "module": "e11_snapshot_reads",
        "title": "snapshot reads vs lock-based reads under failures",
        "full": dict(trials=4, duration=600.0),
        "small": dict(trials=2, duration=300.0),
        "scenarios": {
            "e11sync": {"variant": "locking"},
            "e11": {"variant": "mvcc"},
        },
    },
}


def experiment_module(eid: str) -> types.ModuleType:
    """The experiment's module (``plan``/``assemble``/``run``/``traced_scenario``)."""
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
    sample_period: float | None = None,
    profile: bool = False,
    schedule: typing.Any = None,
    races: bool = False,
    **kwargs: typing.Any,
) -> tuple[Kernel, DatabaseSystem, Observability]:
    """Like :func:`build_scheme`, but with spans + timeline recording on.

    The returned :class:`~repro.obs.Observability` carries the span
    tree, timeline instants, and metrics registry for export after the
    scenario runs. This is the one place that knows which probes exist
    and how they attach; traced scenarios receive it from
    :func:`run_traced` with the probe keywords already bound.

    Every probe attaches through ``kernel.probes`` (its ``attach_*``
    function subscribes it), so any combination rides one run through
    the kernel's one probed drain loop, and each leaves a handle on the
    bundle. ``audit=True`` (``repro audit``): a
    :class:`~repro.audit.ProtocolAuditor`, attached before any load
    runs, on ``obs.audit``. ``sample_period``: a windowed time-series
    sampler (:func:`repro.obs.timeseries.attach_sampler`) ticking at
    that period from boot, on ``obs.sampler``. ``profile=True``
    (``repro profile``): a host-CPU profiler
    (:func:`repro.obs.profiler.attach_profiler`), on ``obs.profiler``.
    ``schedule`` (a :class:`~repro.sanitize.policy.ScheduleSpec`,
    ``repro schedfuzz``): the kernel's same-timestamp tie-breaks are
    resolved by the spec's policy, attached *before* the system is
    built so boot-time ties are perturbed too, on ``obs.policy``.
    ``races=True``: a happens-before race detector
    (:func:`repro.sanitize.hb.attach_detector`), on ``obs.sanitizer``.
    All of it is per kernel: nothing outlives the run, so there is
    nothing to tear down.
    """
    kernel = Kernel(seed=seed)
    obs = Observability(kernel, spans=True, timeline=True)
    if schedule is not None:
        from repro.sanitize.policy import attach_policy

        obs.policy = attach_policy(kernel, schedule)
    if races:
        from repro.sanitize.hb import attach_detector

        obs.sanitizer = attach_detector(kernel)
    system = _build_system(
        kernel, scheme, n_sites, items, catalog, txn_config, obs=obs, **kwargs
    )
    if audit:
        from repro.audit import attach_auditor

        attach_auditor(system)
    if sample_period is not None:
        from repro.obs.timeseries import attach_sampler

        attach_sampler(system, sample_period)
    if profile:
        from repro.obs.profiler import attach_profiler

        attach_profiler(system)
    return kernel, system, obs


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
    """Every traced-scenario name of :data:`EXPERIMENTS`."""
    return sorted(name for spec in EXPERIMENTS.values() for name in spec["scenarios"])


def traced_scenario(name: str) -> typing.Callable[..., tuple]:
    """The named traced scenario as a ``(build, seed)`` callable."""
    for eid, spec in EXPERIMENTS.items():
        if name in spec["scenarios"]:
            return functools.partial(
                experiment_module(eid).traced_scenario, **spec["scenarios"][name]
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
    obs, summary)``. ``probes`` are :func:`build_traced_scheme`'s probe
    keywords (``audit``, ``sample_period``, ``profile``, ``schedule``,
    ``races``); they are bound into the ``build`` the scenario receives,
    so a scenario never names a probe. The returned run's ``obs``
    carries whatever was attached (``obs.audit``, ``obs.sampler``,
    ``obs.profiler``, ``obs.policy``, ``obs.sanitizer``).

    Spans still open at the horizon are closed here with
    ``truncated=True`` so exports and critpath see them (idempotent
    after :func:`quiesce`). There is no probe teardown: every probe
    lives on the run's own kernel.
    """
    if callable(experiment):
        scenario, name = experiment, getattr(experiment, "__name__", "custom")
    else:
        scenario, name = traced_scenario(experiment), experiment
    kernel, system, obs, summary = scenario(
        functools.partial(build_traced_scheme, **probes), seed
    )
    obs.spans.finish_open()
    return TracedRun(name, seed, kernel, system, obs, summary)


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
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big")


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
