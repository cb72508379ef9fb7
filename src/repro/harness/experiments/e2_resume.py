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
                missed=missed, replay_cost=replay_cost,
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


def _one_cell(scheme, seed, n_sites, n_items, missed, replay_cost):
    spec = WorkloadSpec(n_items=n_items)
    kwargs = {}
    if scheme == "spooler":
        kwargs["replay_cost_per_update"] = replay_cost
    kernel, system = build_scheme(
        scheme, seed * 37 + missed, n_sites, spec.initial_items(), **kwargs
    )
    victim = n_sites
    writes = [(f"X{index % n_items}", index) for index in range(missed)]
    power_at = outage(kernel, system, victim, writes).power_at
    t_operational = kernel.now - power_at
    t_caught_up = _caught_up_time(kernel, system, scheme, victim, power_at)
    system.stop()
    return t_operational, t_caught_up


def _caught_up_time(kernel, system, scheme, victim, power_at):
    if scheme == "rowaa":
        kernel.run(until=kernel.now + 2000)
        drained = system.copiers[victim].drained_at
        return (drained - power_at) if drained is not None else None
    # Spooler replays before rejoining; directories refresh during the
    # INCLUDE pass: caught-up coincides with operational.
    return kernel.now - power_at


def traced_scenario(build, seed: int = 0):
    """One traced rowaa cell for ``repro trace``: crash, miss, reboot, drain.

    The canonical observability scenario: its span tree contains user
    transactions with remote RPC children (the missed updates), the
    type-1 control transaction of the §3.4 recovery, and the copier
    refreshes that drain the missing list afterwards.
    """
    n_sites, n_items, missed = 3, 8, 6
    spec = WorkloadSpec(n_items=n_items)
    kernel, system, obs = build(
        "rowaa", seed * 37 + missed, n_sites, spec.initial_items(),
    )
    victim = n_sites
    writes = [(f"X{index % n_items}", index) for index in range(missed)]
    power_at = outage(kernel, system, victim, writes).power_at
    t_operational = kernel.now - power_at
    kernel.run(until=kernel.now + 1500)  # let copiers drain
    wind_down(kernel, system)
    drained = system.copiers[victim].drained_at
    return kernel, system, obs, {
        "missed_updates": missed,
        "t_operational": t_operational,
        "t_caught_up": (drained - power_at) if drained is not None else None,
    }
