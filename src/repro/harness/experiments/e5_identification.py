"""E5 — identifying out-of-date copies: mark-all vs §5 refinements.

Paper claim (§5): tracking mechanisms (fail-locks, missing lists)
"eliminate the unnecessary work", and even without them "a copier can
compare the version numbers ... first, then decide whether copying data
is necessary".

Design: crash a site, update a fraction of the database, recover under
each identification policy, and count: copies marked unreadable, data
transfers performed, version-skip hits. Also report mark-all with the
version-skip optimisation disabled (the true worst case).
"""

from __future__ import annotations

import typing

from repro.core.config import RowaaConfig
from repro.harness.parallel import Cell
from repro.harness.runner import build_scheme, outage, tagged_seed, wind_down
from repro.harness.tables import Claim, Table
from repro.workload import WorkloadSpec

POLICIES = ("mark-all", "mark-all-no-skip", "fail-locks", "missing-lists")


def plan(
    seed: int = 0,
    n_sites: int = 3,
    n_items: int = 24,
    update_fractions: tuple[float, ...] = (0.125, 0.5, 1.0),
) -> list[Cell]:
    """One cell per (policy × update fraction)."""
    return [
        Cell(
            "e5",
            _one_cell,
            dict(
                seed=seed, seed_tag=("e5", policy), n_sites=n_sites,
                n_items=n_items, fraction=fraction, policy=policy, drain=2000.0,
            ),
            dict(policy=policy, updated_fraction=fraction),
        )
        for policy in POLICIES
        for fraction in update_fractions
    ]


def assemble(
    cells: list[Cell], results: list, n_items: int = 24, **_params
) -> Table:
    table = Table(
        f"E5: out-of-date identification (items={n_items})",
        ["policy", "updated_fraction", "marked", "data_transfers", "version_skips"],
        facts={"n_items": n_items},
    )
    for cell, result in zip(cells, results):
        table.add_row(
            policy=cell.tag["policy"],
            updated_fraction=cell.tag["updated_fraction"],
            **result,
        )
    return table


def claims(table: Table) -> list[Claim]:
    """Marks and transfers against ``round(n * f)``, the items updated."""
    n = table.facts["n_items"]

    def check(column: str, policies: tuple, expected: typing.Callable) -> tuple:
        rows = [row for row in table.rows if row["policy"] in policies]
        read = {f"{row['policy']}@{row['updated_fraction']:g}": row[column] for row in rows}
        return (
            all(row[column] == expected(row["updated_fraction"]) for row in rows),
            {"n": n, **read},
        )

    return [
        Claim("e5.precise-marks", "§5", "fail-locks and missing-lists mark exactly the "
              "round(n*f) updated copies",
              *check("marked", ("fail-locks", "missing-lists"), lambda f: round(n * f))),
        Claim("e5.mark-all", "§3.4", "mark-all marks all n copies at every update fraction",
              *check("marked", ("mark-all",), lambda f: n)),
        Claim("e5.version-skip", "§5", "the version check cuts mark-all's transfers to the "
              "round(n*f) updated copies",
              *check("data_transfers", ("mark-all",), lambda f: round(n * f))),
        Claim("e5.no-skip", "§5", "without the version check, mark-all transfers all n "
              "copies", *check("data_transfers", ("mark-all-no-skip",), lambda f: n)),
    ]


def _one_cell(**params):
    """The grid's cell: the world under the plain builder, result only."""
    return scenario(build_scheme, **params)[2]


def scenario(build, seed, seed_tag, policy, n_sites, n_items, fraction, drain):
    """``fraction`` of the items are updated during the last site's
    outage; it recovers under ``policy`` and its copiers get ``drain``
    units to finish.

    Under ``mark-all`` the recovery marks every resident copy and the
    copiers sort current from stale via the version check, so a trace
    shows version-skip refreshes alongside real transfers.
    """
    identify = "mark-all" if policy == "mark-all-no-skip" else policy
    rowaa_config = RowaaConfig(
        copier_mode="eager",
        identify_mode=identify,
        version_skip=(policy != "mark-all-no-skip"),
    )
    spec = WorkloadSpec(n_items=n_items)
    kernel, system = build(
        "rowaa", tagged_seed(seed_tag, seed), n_sites, spec.initial_items(),
        rowaa_config=rowaa_config,
    )
    victim = n_sites
    n_updated = round(n_items * fraction)
    writes = [(f"X{index}", index) for index in range(n_updated)]
    record = outage(kernel, system, victim, writes).record
    kernel.run(until=kernel.now + drain)  # let copiers finish
    wind_down(kernel, system)
    stats = system.copiers[victim].stats
    return kernel, system, {
        "marked": record.marked_items,
        "data_transfers": stats.copies_performed,
        "version_skips": stats.copies_skipped_version,
    }
