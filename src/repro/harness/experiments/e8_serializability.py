"""E8 — one-serializability under failures (Theorem 3, §1 example).

Paper claims: (a) the §1 example shows that naive available-copies
commits executions that cannot be made consistent by any recovery;
(b) Theorem 3: under the protocol, the conflict graph w.r.t. DB ∪ NS is
a 1-STG w.r.t. DB, so every execution is one-serializable.

Design: randomized runs with crashes and recoveries under ``rowaa`` and
``naive``; record the physical history; check (i) the Theorem-3
invariant (CG over DB ∪ NS acyclic) and (ii) one-serializability of the
DB projection. Plus the §1 scenario replayed verbatim (it is also a
unit test).
"""

from __future__ import annotations

from repro.core.nominal import db_item_filter
from repro.harness.parallel import Cell
from repro.harness.runner import build_scheme, quiesce
from repro.harness.tables import Claim, Table, every_run
from repro.histories import check_one_sr, check_theorem3
from repro.sim.rng import RngRegistry
from repro.workload import ClientPool, FailureSchedule, WorkloadGenerator, WorkloadSpec

SCHEMES = ("rowaa", "rowaa-to", "naive")
"""``rowaa-to`` is the protocol on the timestamp-ordering scheduler —
Theorem 3 is stated for a *class* of concurrency controls, so it must
hold there too."""


def plan(
    seed: int = 0,
    trials: int = 4,
    n_sites: int = 3,
    n_items: int = 8,
    duration: float = 800.0,
) -> list[Cell]:
    """``trials`` cells per scheme; checks run inside the cell so the
    result is a small verdict dict, not a whole history recorder."""
    return [
        Cell(
            "e8",
            _one_trial,
            dict(
                scheme=scheme, seed=seed * 7919 + trial,
                n_sites=n_sites, n_items=n_items, duration=duration,
                mtbf=250, mttr=80, n_clients=5, grace=800.0,
            ),
            dict(scheme=scheme, trial=trial),
        )
        for scheme in SCHEMES
        for trial in range(trials)
    ]


def assemble(
    cells: list[Cell], results: list, trials: int = 4, **_params
) -> Table:
    table = Table(
        f"E8: one-serializability under failures ({trials} random runs each)",
        ["scheme", "runs", "committed_txns", "one_sr_ok", "theorem3_ok"],
    )
    groups: dict[str, list[dict]] = {}
    for cell, verdict in zip(cells, results):
        groups.setdefault(cell.tag["scheme"], []).append(verdict)
    for scheme, verdicts in groups.items():
        table.add_row(
            scheme=scheme,
            runs=len(verdicts),
            committed_txns=sum(v["committed"] for v in verdicts),
            one_sr_ok=sum(1 for v in verdicts if v["one_sr"]),
            theorem3_ok=sum(1 for v in verdicts if v["theorem3"]),
        )
    return table


def claims(table: Table) -> list[Claim]:
    """Theorem 3 under both schedulers, and §1's naive-scheme warning."""
    row = table.by("scheme")
    verdicts = (
        ("1sr", "one_sr_ok", "one-serializable"),
        ("theorem3", "theorem3_ok", "Theorem-3 clean (its conflict graph over DB and NS "
         "is acyclic)"),
    )
    naive = row["naive"]
    return [
        Claim(f"e8.{scheme}-{name}", "§4 Theorem 3",
              f"every {scheme} run ({scheduler}) is {verdict}",
              *every_run([row[scheme]], "scheme", column))
        for scheme, scheduler in (("rowaa", "strict 2PL"), ("rowaa-to", "timestamp ordering"))
        for name, column, verdict in verdicts
    ] + [
        Claim("e8.naive-violates", "§1", "naive commits a non-1SR execution in at least one "
              "run while its conflict graph stays acyclic in every run",
              naive["one_sr_ok"] < naive["runs"] and naive["theorem3_ok"] == naive["runs"],
              {column: naive[column] for column in ("runs", "one_sr_ok", "theorem3_ok")}),
    ]


def _one_trial(**params):
    """The grid's cell: the world under the plain builder, result only."""
    return scenario(build_scheme, **params)[2]


def scenario(
    build, seed, scheme, n_sites, n_items, duration, mtbf, mttr, n_clients, grace,
    per_client_streams=False,
):
    """One randomized crash/recovery run, quiesced, then both history checks.

    The full Theorem-3 setting: clients on every site, random outages —
    a trace shows user, control, and copier spans interleaving across
    failures.
    """
    spec = WorkloadSpec(
        n_items=n_items, ops_per_txn=3, write_fraction=0.5, zipf_s=0.5
    )
    kwargs = {}
    if scheme == "rowaa-to":
        scheme = "rowaa"
        kwargs["concurrency"] = "to"
    kernel, system = build(scheme, seed, n_sites, spec.initial_items(), **kwargs)
    # Dedicated registry streams: crash times and workload draws are
    # independent — changing one never perturbs the other at equal seed.
    rngs = RngRegistry(seed)
    failures = FailureSchedule.random_failures(
        system.cluster.site_ids, rngs.stream(FailureSchedule.RNG_STREAM),
        horizon=duration * 0.8, mtbf=mtbf, mttr=mttr,
    )
    failures.apply(system)
    # Home clients on every site; reads may thus hit rejoined stale
    # copies under the naive scheme — exactly its failure mode.
    pool = ClientPool(
        system, WorkloadGenerator(spec, rngs.stream("workload.generator")),
        n_clients=n_clients, think_time=4.0, retries=2,
        per_client_streams=per_client_streams,
    )
    pool.start(duration)
    kernel.run(until=duration)
    quiesce(kernel, system, grace=grace)
    return kernel, system, {
        "committed": pool.stats.committed,
        "one_sr": check_one_sr(system.recorder, item_filter=db_item_filter).ok,
        "theorem3": check_theorem3(system.recorder).ok,
    }
