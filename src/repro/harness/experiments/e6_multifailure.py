"""E6 — resilience to multiple and cascading failures.

Paper claim (§1, §3.4): the algorithm "is resilient to multiple site
failures, even if a site crashes while another site is recovering. A
failed site can recover as long as there is at least one operational
site in the system"; a crash during the type-1 transaction is handled
by a type-2 exclusion and a retry.

Design: randomized trials per scenario; report the recovery success
rate, mean type-1 attempts, and type-2 exclusions run by the recovery
procedure itself.

Scenarios:
* ``single``            — one crash, quiet recovery (baseline: 1 attempt);
* ``crash-during-t1``   — a second site crashes inside the recovery
                          window, forcing the §3.4 step-4 path;
* ``last-survivor``     — all sites but one are down; recover one against
                          the single survivor;
* ``cascade``           — sites crash and recover in a rolling wave.
"""

from __future__ import annotations

import random

from repro.harness.metrics import mean
from repro.harness.parallel import Cell
from repro.harness.runner import build_scheme, settle, wind_down
from repro.harness.tables import Claim, Table
from repro.workload import WorkloadSpec

SCENARIOS = ("single", "crash-during-t1", "last-survivor", "cascade")


def plan(
    seed: int = 0,
    trials: int = 5,
    n_sites: int = 4,
    n_items: int = 8,
) -> list[Cell]:
    """``trials`` cells per scenario; a cell returns recovery records."""
    return [
        Cell(
            "e6",
            _one_trial,
            dict(
                drill=drill, seed=seed * 1000 + trial,
                n_sites=n_sites, n_items=n_items,
            ),
            dict(scenario=drill, trial=trial),
        )
        for drill in SCENARIOS
        for trial in range(trials)
    ]


def assemble(
    cells: list[Cell], results: list, trials: int = 5, **_params
) -> Table:
    table = Table(
        f"E6: recovery under multiple failures ({trials} trials each)",
        [
            "scenario",
            "trials",
            "recoveries",
            "succeeded",
            "mean_type1_attempts",
            "type2_by_recoverer",
        ],
    )
    groups: dict[str, list] = {}
    for cell, trial_records in zip(cells, results):
        groups.setdefault(cell.tag["scenario"], []).extend(trial_records)
    for drill, records in groups.items():
        table.add_row(
            scenario=drill,
            trials=trials,
            recoveries=len(records),
            succeeded=sum(1 for record in records if record.succeeded),
            mean_type1_attempts=mean([record.type1_attempts for record in records]),
            type2_by_recoverer=sum(record.type2_runs for record in records),
        )
    return table


def claims(table: Table) -> list[Claim]:
    """Recovery outcomes and type-1 attempts per failure drill."""
    row = table.by("scenario")
    single, disturbed = row["single"], row["crash-during-t1"]
    return [
        Claim("e6.all-recover", "§1, §3.4", "every recovery in every scenario succeeds",
              all(r["succeeded"] == r["recoveries"] for r in table.rows),
              {r["scenario"]: f"{r['succeeded']}/{r['recoveries']}" for r in table.rows}),
        Claim("e6.single-quiet", "§3.4", "a quiet recovery takes exactly 1 type-1 attempt "
              "and runs no type-2",
              single["mean_type1_attempts"] == 1 and single["type2_by_recoverer"] == 0,
              {"attempts": single["mean_type1_attempts"],
               "type2": single["type2_by_recoverer"]}),
        Claim("e6.crash-retries", "§3.4", "a crash during the type-1 forces more than 1 "
              "type-1 attempt on average", disturbed["mean_type1_attempts"] > 1,
              {"attempts": disturbed["mean_type1_attempts"],
               "type2": disturbed["type2_by_recoverer"]}),
    ]


def _one_trial(**params):
    """The grid's cell: the world under the plain builder; the table
    averages over the recovery records themselves."""
    return scenario(build_scheme, **params)[1].recovery_records()


def scenario(build, seed, drill, n_sites, n_items):
    """One randomized trial of the named failure drill (``SCENARIOS``).

    Under ``crash-during-t1`` a second site crashes inside the recovery
    window, forcing the §3.4 step-4 path: a trace shows the recovery
    span containing a failed type-1 attempt, the type-2 exclusion, and
    the retry.
    """
    spec = WorkloadSpec(n_items=n_items)
    kernel, system = build("rowaa", seed, n_sites, spec.initial_items())
    rng = random.Random(seed)

    if drill == "single":
        system.crash(n_sites)
        settle(kernel, system, 60.0)
        kernel.run(system.power_on(n_sites))

    elif drill == "crash-during-t1":
        system.crash(n_sites)
        settle(kernel, system, 60.0)
        recovery = system.power_on(n_sites)
        saboteur_site = 1 + rng.randrange(n_sites - 1)

        def saboteur():
            yield kernel.timeout(0.5 + rng.random() * 4.0)
            if not system.cluster.site(saboteur_site).is_down:
                system.crash(saboteur_site)

        kernel.process(saboteur())
        kernel.run(recovery)
        settle(kernel, system, 100.0)
        if system.cluster.site(saboteur_site).is_down:
            kernel.run(system.power_on(saboteur_site))

    elif drill == "last-survivor":
        for site_id in range(2, n_sites + 1):
            system.crash(site_id)
            settle(kernel, system, 40.0)
        kernel.run(system.power_on(n_sites))
        for site_id in range(2, n_sites):
            kernel.run(system.power_on(site_id))

    elif drill == "cascade":
        for wave in range(3):
            victim = 1 + (wave % n_sites)
            system.crash(victim)
            settle(kernel, system, 30.0 + rng.random() * 30.0)
            kernel.run(system.power_on(victim))
            settle(kernel, system, 20.0)

    else:  # pragma: no cover - guarded by SCENARIOS
        raise ValueError(drill)

    settle(kernel, system, 200.0)
    wind_down(kernel, system)
    records = system.recovery_records()
    return kernel, system, {
        "recoveries": len(records),
        "succeeded": sum(1 for record in records if record.succeeded),
        "type1_attempts": sum(record.type1_attempts for record in records),
        "type2_runs": sum(record.type2_runs for record in records),
    }
