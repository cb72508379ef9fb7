"""E7 — the cost of status maintenance.

Paper claim (§6): "The control transactions which update the nominal
session numbers are only necessary when sites fail or recover" — and
they are per-*site*, not per-*item*. The directory scheme of [2] pays
one status transaction per item on every failure and recovery.

Design: no user load at all; crash one site, let exclusion happen,
recover it, and count status transactions and remote messages — all
traffic in the run is failure-handling traffic. Sweep the database
size.

Expected shape: rowaa's costs are flat in the number of items (one
type-2, one type-1); the directory scheme's grow linearly (one EXCLUDE
and one INCLUDE per item).
"""

from __future__ import annotations

from repro.harness.parallel import Cell, run_table
from repro.harness.runner import build_scheme, settle, wind_down
from repro.harness.tables import Table
from repro.workload import WorkloadSpec

SCHEMES = ("rowaa", "rowaa-faillocks", "directories")


def plan(
    seed: int = 0,
    n_sites: int = 3,
    item_counts: tuple[int, ...] = (4, 16, 48),
    schemes: tuple[str, ...] = SCHEMES,
) -> list[Cell]:
    """One cell per (scheme × database size)."""
    return [
        Cell(
            "e7",
            _one_cell,
            dict(
                scheme=scheme, seed=seed, n_sites=n_sites, n_items=n_items,
                drain=2500.0,  # drain copiers/includes fully
            ),
            dict(scheme=scheme, items=n_items),
        )
        for scheme in schemes
        for n_items in item_counts
    ]


def assemble(cells: list[Cell], results: list, **_params) -> Table:
    table = Table(
        "E7: control cost of one crash + one recovery (no user load)",
        ["scheme", "items", "status_txns", "remote_messages"],
    )
    for cell, result in zip(cells, results):
        table.add_row(scheme=cell.tag["scheme"], items=cell.tag["items"], **result)
    return table


def run(jobs: int | None = None, **params) -> Table:
    """Status-maintenance cost over (scheme × database size); ``params`` are :func:`plan`'s."""
    return run_table(__name__, params, jobs)


def _one_cell(**params):
    """The grid's cell: the world under the plain builder, result only."""
    return scenario(build_scheme, **params)[2]


def scenario(build, seed, scheme, n_sites, n_items, drain):
    """One quiet crash/reboot cycle of the last site, then ``drain``
    units for whatever the scheme still has to move.

    Nothing is updated during the outage, so a trace isolates the pure
    control cost: the type-2 exclusion after detection and the type-1
    inclusion at recovery, with no copier data transfers riding along.
    """
    spec = WorkloadSpec(n_items=n_items)
    kwargs = {}
    build_as = scheme
    if scheme == "rowaa-faillocks":
        # Nothing was updated during the outage, so precise
        # identification marks nothing: isolates pure control traffic
        # from mark-all's copier sweep.
        from repro.core.config import RowaaConfig

        build_as = "rowaa"
        kwargs["rowaa_config"] = RowaaConfig(identify_mode="fail-locks")
    kernel, system = build(
        build_as, seed * 53 + n_items, n_sites, spec.initial_items(), **kwargs
    )
    baseline_msgs = system.cluster.network.stats.sent
    victim = n_sites
    system.crash(victim)
    settle(kernel, system, 120.0)
    kernel.run(system.power_on(victim))
    settle(kernel, system, drain)
    wind_down(kernel, system)

    messages = system.cluster.network.stats.sent - baseline_msgs
    if scheme in ("rowaa", "rowaa-faillocks"):
        status_txns = (
            sum(service.type2_committed for service in system.controls.values())
            + sum(1 for record in system.recovery_records() if record.succeeded)
        )
    else:
        service = system.directory_service
        status_txns = service.exclude_committed + sum(
            record.includes_committed for record in service.records
        )
    return kernel, system, {"status_txns": status_txns, "remote_messages": messages}
