"""E4 — copier scheduling strategies.

Paper claim (§3.2): copiers "may be initiated by the recovery procedure
one by one for individual unreadable data copies, or on a demand basis
... Such choices may influence the performance but not the correctness."

Design: crash a site, commit updates that make a fraction of its copies
stale, reboot it, and immediately aim a read-heavy client at the
recovered site. Compare copier modes: eager, demand, both, none (user
writes only). Report staleness drain time, the rate of reads that had to
redirect away from the local copy, and copier work. That committed
reads see current data in every mode is asserted by the test suite.
"""

from __future__ import annotations

import math
import random

from repro.core.config import RowaaConfig
from repro.harness.parallel import Cell
from repro.harness.runner import build_scheme, outage, tagged_seed, wind_down
from repro.harness.tables import Claim, Table
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

MODES = ("eager", "demand", "both", "none")


def plan(
    seed: int = 0,
    n_sites: int = 3,
    n_items: int = 24,
    stale_fraction: float = 0.5,
    read_duration: float = 600.0,
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
        for mode in MODES
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


def claims(table: Table) -> list[Claim]:
    """What each copier schedule costs in drain time and redirected reads."""
    row = table.by("mode")
    drain = {mode: row[mode]["drain_time"] for mode in MODES}  # None: never drained
    redirected = {mode: row[mode]["redirected_reads"] for mode in MODES}
    eager, demand = (math.inf if drain[m] is None else drain[m] for m in ("eager", "demand"))
    return [
        Claim("e4.eager-drains", "§3.2", "eager and both copiers clear every stale copy",
              None not in (drain["eager"], drain["both"]),
              {mode: drain[mode] for mode in ("eager", "both")}),
        Claim("e4.demand-lags", "§3.2", "demand copiers drain no sooner than eager ones and "
              "redirect at least as many reads",
              demand >= eager and redirected["demand"] >= redirected["eager"],
              {"drain.eager": drain["eager"], "drain.demand": drain["demand"],
               "redirected.eager": redirected["eager"],
               "redirected.demand": redirected["demand"]}),
        Claim("e4.none-never-copies", "§3.2", "without copiers nothing is copied and more "
              "reads redirect than under any copier schedule",
              row["none"]["copies_performed"] == 0
              and redirected["none"] > max(redirected[mode] for mode in MODES[:3]),
              {**redirected, "copies.none": row["none"]["copies_performed"]}),
    ]


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
