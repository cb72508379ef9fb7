"""E4 — copier scheduling strategies.

Paper claim (§3.2): copiers "may be initiated by the recovery procedure
one by one for individual unreadable data copies, or on a demand basis
... Such choices may influence the performance but not the correctness."

Design: crash a site, commit updates that make a fraction of its copies
stale, reboot it, and immediately aim a read-heavy client at the
recovered site. Compare copier modes: eager, demand, both, none (user
writes only). Report staleness drain time, the rate of reads that had to
redirect away from the local copy, and copier work.

Expected shape: eager/both drain fastest; demand drains only what is
read (drain time unbounded for cold items — reported as None); none
never proactively drains; correctness (committed reads see current
data) holds in every mode — that is asserted by the test suite, not
measured here.
"""

from __future__ import annotations

import random

from repro.core.config import RowaaConfig
from repro.harness.parallel import Cell, run_table
from repro.harness.runner import build_scheme, outage, tagged_seed, wind_down
from repro.harness.tables import Table
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

MODES = ("eager", "demand", "both", "none")


def plan(
    seed: int = 0,
    n_sites: int = 3,
    n_items: int = 24,
    stale_fraction: float = 0.5,
    read_duration: float = 600.0,
    modes: tuple[str, ...] = MODES,
) -> list[Cell]:
    """One cell per copier mode."""
    return [
        Cell(
            "e4",
            _one_cell,
            dict(
                seed=seed, seed_tag=("e4", mode), n_sites=n_sites,
                n_items=n_items, stale_fraction=stale_fraction, n_clients=3,
                read_duration=read_duration, horizon=read_duration + 100,
                mode=mode,
            ),
            dict(mode=mode),
        )
        for mode in modes
    ]


def assemble(
    cells: list[Cell], results: list, n_items: int = 24,
    stale_fraction: float = 0.5, **_params,
) -> Table:
    table = Table(
        f"E4: copier scheduling (items={n_items}, stale={stale_fraction:.0%})",
        [
            "mode",
            "drain_time",
            "redirected_reads",
            "copies_performed",
            "version_skips",
        ],
    )
    for cell, result in zip(cells, results):
        table.add_row(mode=cell.tag["mode"], **result)
    return table


def run(jobs: int | None = None, **params) -> Table:
    """Copier-strategy table; ``params`` are :func:`plan`'s."""
    return run_table(__name__, params, jobs)


def _one_cell(n_sites, **params):
    """The grid's cell: the world under the plain builder, plus the
    table's version-skip column."""
    _kernel, system, result = scenario(build_scheme, n_sites=n_sites, **params)
    stats = system.copiers[n_sites].stats
    return {**result, "version_skips": stats.copies_skipped_version}


def scenario(
    build, seed, seed_tag, mode, n_sites, n_items, stale_fraction, n_clients,
    read_duration, horizon, per_client_streams=False,
):
    """A fraction of the last site's copies go stale during its outage;
    read load lands on it from the moment it is back.

    Under ``eager`` a trace shows copier-refresh spans interleaved with
    redirected user reads while the copiers drain.
    """
    spec = WorkloadSpec(n_items=n_items, ops_per_txn=2, write_fraction=0.0)
    rowaa_config = RowaaConfig(copier_mode=mode, unreadable_policy="redirect")
    kernel, system = build(
        "rowaa", tagged_seed(seed_tag, seed), n_sites, spec.initial_items(),
        rowaa_config=rowaa_config,
    )
    victim = n_sites
    n_stale = int(n_items * stale_fraction)
    writes = [(f"X{index}", index) for index in range(n_stale)]
    power_at = outage(kernel, system, victim, writes).power_at

    rng = random.Random(seed)
    pool = ClientPool(
        system,
        WorkloadGenerator(spec, rng),
        n_clients=n_clients,
        think_time=2.0,
        home_sites=[victim],  # read load lands on the recovered site
        per_client_streams=per_client_streams,
    )
    pool.start(read_duration)
    kernel.run(until=kernel.now + horizon)
    wind_down(kernel, system)

    copiers = system.copiers[victim]
    drained = copiers.drained_at
    return kernel, system, {
        "drain_time": (drained - power_at) if drained is not None else None,
        "redirected_reads": system.dms[victim].stats_unreadable_rejections,
        "copies_performed": copiers.stats.copies_performed,
    }
