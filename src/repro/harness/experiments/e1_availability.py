"""E1 — availability vs number of failed sites.

Paper claim (§1, §6): ROWAA "provides a high degree of availability";
a logical operation succeeds "as long as one of its copies is in an
operational site and the transaction knows the site's session number".

Design: n sites, k-way replication; crash f sites; after the failure
handling settles, drive pure-read and pure-write clients from the
surviving sites and report the committed fraction per scheme.

Expected shape: write availability — ROWA collapses as soon as any
replica of a touched item is down; quorum survives up to minority loss;
ROWAA (and directories) stay high until an item loses its last copy.
Read availability — everyone reads one copy, so all schemes degrade only
with total item failure (quorum earlier: it needs a read majority).
"""

from __future__ import annotations

import random

from repro.harness.parallel import Cell, run_table
from repro.harness.runner import (
    build_scheme,
    replicated_catalog,
    settle,
    tagged_seed,
    wind_down,
)
from repro.harness.tables import Table
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

SCHEMES = ("rowaa", "rowa", "quorum", "directories")


def plan(
    seed: int = 0,
    n_sites: int = 5,
    replication: int = 3,
    n_items: int = 20,
    max_failed: int | None = None,
    load_duration: float = 400.0,
    schemes: tuple[str, ...] = SCHEMES,
) -> list[Cell]:
    """One cell per (scheme × failed-site count)."""
    if max_failed is None:
        max_failed = n_sites - 1
    spec = WorkloadSpec(n_items=n_items, ops_per_txn=2, write_fraction=0.0)
    return [
        Cell(
            "e1",
            _one_cell,
            dict(
                scheme=scheme, seed=seed, n_sites=n_sites,
                replication=replication, spec=spec, failed=failed,
                load_duration=load_duration,
            ),
            dict(scheme=scheme, failed=failed),
        )
        for scheme in schemes
        for failed in range(0, max_failed + 1)
    ]


def assemble(
    cells: list[Cell],
    results: list,
    n_sites: int = 5,
    replication: int = 3,
    **_params,
) -> Table:
    table = Table(
        "E1: operation availability vs failed sites "
        f"(n={n_sites}, replication={replication})",
        ["scheme", "failed", "read_availability", "write_availability", "refused"],
    )
    for cell, (read_avail, write_avail, refused) in zip(cells, results):
        table.add_row(
            scheme=cell.tag["scheme"],
            failed=cell.tag["failed"],
            read_availability=read_avail,
            write_availability=write_avail,
            refused=refused,
        )
    return table


def run(jobs: int | None = None, **params) -> Table:
    """Availability table over (scheme × failed-site count); ``params`` are :func:`plan`'s."""
    return run_table(__name__, params, jobs)


def _one_cell(**params):
    """The grid's cell: its world under the plain builder, result only."""
    return grid_scenario(build_scheme, **params)[2]


def grid_scenario(
    build, seed, scheme, n_sites, replication, spec, failed, load_duration
):
    """The table's world: ``failed`` sites stay down while separate
    pure-read and pure-write pools run on the survivors."""
    catalog = replicated_catalog(n_sites, spec.item_names(), replication, seed)
    kernel, system = build(
        scheme, seed * 101 + failed, n_sites, spec.initial_items(), catalog=catalog
    )
    # Crash the highest-numbered sites; clients live on survivors.
    survivors = list(range(1, n_sites - failed + 1))
    for site_id in range(n_sites - failed + 1, n_sites + 1):
        system.crash(site_id)
    settle(kernel, system, 80.0)  # detection + exclusion machinery

    rng = random.Random(seed * 7 + failed)
    read_spec = WorkloadSpec(
        n_items=spec.n_items, ops_per_txn=2, write_fraction=0.0
    )
    write_spec = WorkloadSpec(
        n_items=spec.n_items, ops_per_txn=2, write_fraction=1.0,
        read_modify_write=False,
    )
    readers = ClientPool(
        system, WorkloadGenerator(read_spec, rng), n_clients=4,
        think_time=3.0, retries=1, home_sites=survivors,
    )
    writers = ClientPool(
        system, WorkloadGenerator(write_spec, rng), n_clients=4,
        think_time=3.0, retries=1, home_sites=survivors,
    )
    readers.start(load_duration)
    writers.start(load_duration)
    kernel.run(until=kernel.now + load_duration + 50)
    wind_down(kernel, system)
    refused = readers.stats.refused + writers.stats.refused
    return kernel, system, (
        readers.stats.availability, writers.stats.availability, refused
    )


def scenario(
    build, seed, seed_tag, n_sites, replication, n_items, n_clients,
    load_duration, horizon, per_client_streams=False,
):
    """The traced world: one crashed site under one mixed pool, then its
    recovery at ``horizon``.

    E1 alone keeps two worlds. The table needs read and write
    availability apart and no recovery; the trace is worth reading
    because reads and writes interleave in one pool and the crashed
    site comes back at the end. Neither is the other at any parameter
    set, so one body would branch on its caller.
    """
    spec = WorkloadSpec(n_items=n_items, ops_per_txn=2, write_fraction=0.3)
    world_seed = tagged_seed(seed_tag, seed)
    catalog = replicated_catalog(n_sites, spec.item_names(), replication, world_seed)
    kernel, system = build(
        "rowaa", world_seed, n_sites, spec.initial_items(), catalog=catalog
    )
    system.crash(n_sites)
    settle(kernel, system, 80.0)
    rng = random.Random(seed)
    pool = ClientPool(
        system, WorkloadGenerator(spec, rng), n_clients=n_clients,
        think_time=3.0, retries=1, home_sites=list(range(1, n_sites)),
        per_client_streams=per_client_streams,
    )
    pool.start(load_duration)
    kernel.run(until=kernel.now + horizon)
    kernel.run(system.power_on(n_sites))
    wind_down(kernel, system)
    return kernel, system, {
        "committed": pool.stats.committed,
        "refused": pool.stats.refused,
        "availability": pool.stats.availability,
    }
