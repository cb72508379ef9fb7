"""E2 — time to resume normal operation after a reboot.

Paper claim (§1, §3.4): "as soon as the recovering site has successfully
informed the other operational sites of its new status, it becomes fully
operational. The recovery of the data items proceeds concurrently with
user transactions."

Design: crash one site, commit U updates that miss it, reboot it, and
measure (a) time from power-on to accepting user transactions and
(b) time until its data is fully caught up. Compare:

* ``rowaa``  — §3.4 + copiers: (a) is a constant few round trips,
  (b) grows with U but runs in the background;
* ``spooler`` — Hammer–Shipman redo: (a) itself grows with U because the
  replay happens *before* rejoining;
* ``directories`` — Bernstein–Goodman INCLUDE: (a) grows with the number
  of resident items (one status transaction each), independent of U.

Expected shape: rowaa's time-to-operational is flat in U and the
smallest; spooler's grows linearly with U; directories' is flat but
sits at the per-item INCLUDE cost ∝ #items.
"""

from __future__ import annotations

from repro.harness.parallel import Cell, run_table
from repro.harness.runner import build_scheme, outage, wind_down
from repro.harness.tables import Table
from repro.workload import WorkloadSpec

SCHEMES = ("rowaa", "spooler", "directories")


def plan(
    seed: int = 0,
    n_sites: int = 3,
    n_items: int = 24,
    missed_updates: tuple[int, ...] = (0, 8, 24, 48),
    schemes: tuple[str, ...] = SCHEMES,
    replay_cost: float = 0.5,
) -> list[Cell]:
    """One cell per (scheme × missed-update count)."""
    return [
        Cell(
            "e2",
            _one_cell,
            dict(
                scheme=scheme, seed=seed, n_sites=n_sites, n_items=n_items,
                missed=missed, replay_cost=replay_cost, drain=2000.0,
            ),
            dict(scheme=scheme, missed_updates=missed),
        )
        for scheme in schemes
        for missed in missed_updates
    ]


def assemble(
    cells: list[Cell], results: list, n_sites: int = 3, n_items: int = 24,
    **_params,
) -> Table:
    table = Table(
        f"E2: recovery latency vs updates missed (n={n_sites}, items={n_items})",
        ["scheme", "missed_updates", "t_operational", "t_caught_up"],
    )
    for cell, (t_op, t_caught) in zip(cells, results):
        table.add_row(
            scheme=cell.tag["scheme"],
            missed_updates=cell.tag["missed_updates"],
            t_operational=t_op,
            t_caught_up=t_caught,
        )
    return table


def run(jobs: int | None = None, **params) -> Table:
    """Resume/caught-up latency over (scheme × missed updates); ``params`` are :func:`plan`'s."""
    return run_table(__name__, params, jobs)


def _one_cell(**params):
    """The grid's cell: the world under the plain builder, its two times."""
    result = scenario(build_scheme, **params)[2]
    return result["t_operational"], result["t_caught_up"]


def scenario(build, seed, scheme, n_sites, n_items, missed, drain, replay_cost=0.5):
    """Crash the last site, miss ``missed`` updates, reboot, catch up.

    Under ``rowaa`` this is the canonical observability scenario: its
    span tree contains user transactions with remote RPC children (the
    missed updates), the type-1 control transaction of the §3.4
    recovery, and the copier refreshes that drain the missing list
    over the ``drain`` units that follow.
    """
    spec = WorkloadSpec(n_items=n_items)
    kwargs = {}
    if scheme == "spooler":
        kwargs["replay_cost_per_update"] = replay_cost
    kernel, system = build(
        scheme, seed * 37 + missed, n_sites, spec.initial_items(), **kwargs
    )
    victim = n_sites
    writes = [(f"X{index % n_items}", index) for index in range(missed)]
    power_at = outage(kernel, system, victim, writes).power_at
    t_operational = kernel.now - power_at
    if scheme == "rowaa":
        kernel.run(until=kernel.now + drain)  # let copiers drain
        drained = system.copiers[victim].drained_at
        t_caught_up = (drained - power_at) if drained is not None else None
    else:
        # Spooler replays before rejoining; directories refresh during
        # the INCLUDE pass: caught-up coincides with operational.
        t_caught_up = t_operational
    wind_down(kernel, system)
    return kernel, system, {
        "missed_updates": missed,
        "t_operational": t_operational,
        "t_caught_up": t_caught_up,
    }
