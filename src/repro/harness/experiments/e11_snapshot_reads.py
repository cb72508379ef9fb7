"""E11 — multiversion snapshot reads under a read-heavy mix + outages.

The repro.mvcc headline experiment: the same 95/5 read-heavy closed-loop
workload with random mid-run outages, run once per read path — snapshot
(``beginRO`` via the per-site multiversion store: no locks, no 2PC, no
deadlock participation, and a RECOVERING home still answers from its
durable stale cut) against the lock-based baseline (the identical
read-only programs replayed through ordinary strict-2PL transactions on
draw-for-draw identical schedules; ``ClientPool(force_locking=True)``).

What the paper's recovery story gains: under the locking baseline a
recovering site refuses every read until the §3.4 procedure completes
and `become_operational` fires, and even on UP sites read-only work
queues behind writer X locks. The snapshot path answers with an explicit
staleness bound instead — ``ro_recovering`` counts item reads served
while the serving site was *provably behind* (RECOVERING or holding
unreadable copies), which the baseline can only score as refusals.

Snapshot reads never enter the RW history, so the §4 guarantees are
untouched by construction; the traced variants additionally run the
``mvcc.snapshot_consistency`` / ``mvcc.gc_pinned`` auditor rules over
every served version.
"""

from __future__ import annotations

from repro.core.nominal import db_item_filter
from repro.harness.parallel import Cell
from repro.harness.runner import build_scheme, quiesce
from repro.harness.tables import Claim, Table, every_run
from repro.histories import check_one_sr, check_theorem3
from repro.obs.metrics import percentile
from repro.sim.rng import RngRegistry
from repro.txn.config import TxnConfig
from repro.workload import ClientPool, FailureSchedule, WorkloadGenerator, WorkloadSpec

VARIANTS = ("locking", "mvcc")


def plan(
    seed: int = 0,
    trials: int = 4,
    n_sites: int = 4,
    n_items: int = 32,
    duration: float = 600.0,
) -> list[Cell]:
    """``trials`` cells per read path, same seeds across variants — the
    workloads and failure schedules are draw-for-draw identical, so
    every row difference is the read path."""
    return [
        Cell(
            "e11",
            _one_trial,
            dict(
                variant=variant, seed=seed * 6971 + trial,
                n_sites=n_sites, n_items=n_items, duration=duration,
                # Denser outages than E10: the headline is reads served
                # *during* recovery windows, so the schedule must
                # actually open them.
                mtbf=500, n_clients=6,
            ),
            dict(variant=variant, trial=trial),
        )
        for variant in VARIANTS
        for trial in range(trials)
    ]


def assemble(
    cells: list[Cell], results: list, trials: int = 4, **_params
) -> Table:
    table = Table(
        f"E11: snapshot reads vs lock-based reads, 95/5 mix + failures "
        f"({trials} random runs each)",
        [
            "variant", "runs", "ro_committed", "ro_refused",
            "ro_recovering", "ro_p50", "ro_p99",
            "rw_committed", "lock_waits", "one_sr_ok", "theorem3_ok",
        ],
    )
    groups: dict[str, list[dict]] = {}
    for cell, verdict in zip(cells, results):
        groups.setdefault(cell.tag["variant"], []).append(verdict)
    for variant in sorted(groups):  # locking baseline first
        verdicts = groups[variant]
        ro_latencies = [x for v in verdicts for x in v["ro_latencies"]]
        table.add_row(
            variant=variant,
            runs=len(verdicts),
            ro_committed=sum(v["ro_committed"] for v in verdicts),
            ro_refused=sum(v["ro_refused"] for v in verdicts),
            ro_recovering=sum(v["ro_recovering"] for v in verdicts),
            ro_p50=percentile(ro_latencies, 50),
            ro_p99=percentile(ro_latencies, 99),
            rw_committed=sum(v["rw_committed"] for v in verdicts),
            lock_waits=sum(v["lock_waits"] for v in verdicts),
            one_sr_ok=sum(1 for v in verdicts if v["one_sr"]),
            theorem3_ok=sum(1 for v in verdicts if v["theorem3"]),
        )
    return table


def claims(table: Table) -> list[Claim]:
    """§4's guarantees on both read paths, and reads served in recovery."""
    locking, mvcc = (table.by("variant")[variant] for variant in VARIANTS)
    return [
        Claim("e11.one-sr", "§4", "every run of both read paths is one-serializable",
              *every_run(table.rows, "variant", "one_sr_ok")),
        Claim("e11.theorem3", "§4 Theorem 3", "every run of both read paths is Theorem-3 "
              "clean", *every_run(table.rows, "variant", "theorem3_ok")),
        Claim("e11.locking-refuses", "§3.4", "the locking read path serves no read from a "
              "recovering site", locking["ro_recovering"] == 0,
              {"locking.ro_recovering": locking["ro_recovering"]}),
        Claim("e11.mvcc-serves-recovering", "DESIGN.md §8", "snapshot reads are served "
              "from recovering sites and commit more read-only transactions than locking",
              mvcc["ro_recovering"] > 0 and mvcc["ro_committed"] > locking["ro_committed"],
              {"mvcc.ro_recovering": mvcc["ro_recovering"], "mvcc.ro_committed":
               mvcc["ro_committed"], "locking.ro_committed": locking["ro_committed"]}),
    ]


def _spec(n_items: int) -> WorkloadSpec:
    """Read-heavy 95/5: 90% of transactions are pure snapshot reads and
    the RW remainder writes half its operations, so roughly one logical
    operation in twenty is a WRITE — the replicated-OLTP shape where
    lock-based read availability hurts the most."""
    return WorkloadSpec(
        n_items=n_items, ops_per_txn=4, write_fraction=0.5, zipf_s=0.0,
        ro_fraction=0.9,
    )


def _one_trial(**params):
    """The grid's cell: the world under the plain builder, result only."""
    return scenario(build_scheme, **params)[2]


def scenario(
    build, seed, variant, n_sites, n_items, duration, mtbf, n_clients,
    per_client_streams=False,
):
    """One read-heavy run of read path ``variant`` under random outages
    (one per site every ``mtbf`` units on average), quiesced and checked.

    The registry exposes the traced run twice on the identical failure
    plan: ``e11`` is the snapshot-read path, ``e11sync`` the lock-based
    baseline.
    """
    spec = _spec(n_items)
    kernel, system = build(
        "rowaa", seed, n_sites, spec.initial_items(),
        txn_config=TxnConfig(rpc_timeout=10.0),
    )
    rngs = RngRegistry(seed)
    failures = FailureSchedule.random_failures(
        system.cluster.site_ids, rngs.stream(FailureSchedule.RNG_STREAM),
        horizon=duration * 0.8, mtbf=mtbf, mttr=60,
    )
    failures.apply(system)
    pool = ClientPool(
        system, WorkloadGenerator(spec, rngs.stream("workload.generator")),
        n_clients=n_clients, think_time=0.5, retries=2,
        force_locking=(variant == "locking"),
        per_client_streams=per_client_streams,
    )
    pool.start(duration)
    kernel.run(until=duration)
    quiesce(kernel, system, grace=800.0)
    dms = list(system.dms.values())
    ro_latencies = pool.stats.ro_latencies
    return kernel, system, {
        "variant": variant,
        "ro_committed": pool.stats.ro_committed,
        "ro_refused": pool.stats.ro_refused,
        "ro_latencies": ro_latencies,
        # Item reads answered while the serving site was provably behind
        # (RECOVERING or holding unreadable copies) — zero by
        # construction for the locking baseline, which refuses instead.
        "ro_recovering": sum(
            store.stats.ro_served_stale for store in system.mvcc.values()
        ),
        "rw_committed": pool.stats.committed - pool.stats.ro_committed,
        "lock_waits": sum(dm.lock_manager.stats_waits for dm in dms),
        "one_sr": check_one_sr(
            system.recorder, item_filter=db_item_filter
        ).ok,
        "theorem3": check_theorem3(system.recorder).ok,
        "ro_p50": percentile(ro_latencies, 50),
        "ro_p99": percentile(ro_latencies, 99),
    }
