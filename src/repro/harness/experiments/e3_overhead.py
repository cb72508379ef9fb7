"""E3 — failure-free overhead of the recovery machinery.

Paper claim (§6): "the extra cost to user transactions is negligible.
Although all user transactions are required to read the local copies of
the nominal states, there is little overhead because these reads do not
conflict with each other" — and they are local (no network traffic).

Design: identical failure-free workloads on ``rowaa`` vs the
machinery-free ``naive`` floor (same read-one/write-all fan-out, no NS
reads, no session tags), sweeping the site count. Report throughput,
mean commit latency, and remote messages per committed transaction.

Expected shape: rowaa within a few percent of the floor on every metric
(the NS reads are intra-site procedure calls; the session tag rides on
messages that are sent anyway).
"""

from __future__ import annotations

import random

from repro.harness.metrics import mean, network_totals, tm_totals
from repro.harness.parallel import Cell, run_table
from repro.harness.runner import build_scheme, wind_down
from repro.harness.tables import Table
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

SCHEMES = ("rowaa", "naive")


def plan(
    seed: int = 0,
    site_counts: tuple[int, ...] = (3, 5, 7),
    n_items: int = 24,
    load_duration: float = 600.0,
    n_clients: int = 6,
    repeats: int = 3,
    schemes: tuple[str, ...] = SCHEMES,
) -> list[Cell]:
    """``repeats`` cells per (scheme × site count) row."""
    return [
        Cell(
            "e3",
            _one_cell,
            dict(
                scheme=scheme, seed=seed + 1000 * rep, n_sites=n_sites,
                n_items=n_items, load_duration=load_duration,
                n_clients=n_clients,
            ),
            dict(scheme=scheme, sites=n_sites, rep=rep),
        )
        for scheme in schemes
        for n_sites in site_counts
        for rep in range(repeats)
    ]


def assemble(cells: list[Cell], results: list, **_params) -> Table:
    table = Table(
        "E3: failure-free overhead of the session-number machinery",
        [
            "scheme",
            "sites",
            "throughput",
            "mean_latency",
            "msgs_per_commit",
            "committed",
        ],
    )
    # Average the repeat cells of each (scheme, sites) row, in plan order.
    groups: dict[tuple, list[dict]] = {}
    for cell, result in zip(cells, results):
        key = (cell.tag["scheme"], cell.tag["sites"])
        groups.setdefault(key, []).append(result)
    for (scheme, n_sites), reps in groups.items():
        table.add_row(
            scheme=scheme,
            sites=n_sites,
            throughput=mean([rep["throughput"] for rep in reps]),
            mean_latency=mean([rep["mean_latency"] for rep in reps]),
            msgs_per_commit=mean([rep["msgs_per_commit"] or 0.0 for rep in reps]),
            committed=sum(rep["committed"] for rep in reps),
        )
    return table


def run(jobs: int | None = None, **params) -> Table:
    """Overhead table over (scheme × site count), no failures; ``params`` are :func:`plan`'s.

    Each row averages ``repeats`` seeds: under contention, scheduling
    noise (a few extra zero-latency local events shift lock-grant
    interleavings) swings single runs by ~10%, drowning the effect being
    measured.
    """
    return run_table(__name__, params, jobs)


def _one_cell(load_duration, **params):
    """The grid's cell: the world under the plain builder. The table
    counts commits and messages system-wide (TM and network totals),
    not at the clients."""
    _kernel, system, result = scenario(
        build_scheme, load_duration=load_duration, **params
    )
    committed = tm_totals(system)["committed"]
    sent = network_totals(system)["sent"]
    return {
        "throughput": committed / load_duration,
        "mean_latency": result["mean_latency"],
        "msgs_per_commit": (sent / committed) if committed else None,
        "committed": committed,
    }


def scenario(
    build, seed, scheme, n_sites, n_items, load_duration, n_clients,
    per_client_streams=False,
):
    """A failure-free closed-loop run of ``load_duration`` units.

    No crashes: a trace shows the steady-state shape of the protocol —
    user transaction spans whose RPC children carry the read-one /
    write-all fan-out and the 2PC rounds.
    """
    spec = WorkloadSpec(n_items=n_items, ops_per_txn=3, write_fraction=0.3)
    kernel, system = build(
        scheme, seed * 13 + n_sites, n_sites, spec.initial_items()
    )
    rng = random.Random(seed + n_sites)
    pool = ClientPool(
        system, WorkloadGenerator(spec, rng), n_clients=n_clients, think_time=2.0,
        per_client_streams=per_client_streams,
    )
    pool.start(load_duration)
    kernel.run(until=load_duration + 50)
    wind_down(kernel, system)
    committed = pool.stats.committed
    return kernel, system, {
        "committed": committed,
        "throughput": committed / load_duration,
        "mean_latency": mean(pool.stats.latencies),
    }
