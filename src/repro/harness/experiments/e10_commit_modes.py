"""E10 — commit modes under write-heavy load and failures.

The PR-6 headline experiment: the same write-heavy closed-loop workload
with random mid-run outages, run once per ``TxnConfig.commit_mode`` —
the synchronous presumed-abort 2PC baseline against the asynchronous
quorum fast path (pipelined prepares, quorum decision at the write-all
ack, background drains). Throughput here is *goodput in simulated time*
(client transactions acked per sim-time unit), so the sync/async gap is
exactly the commit path's network-round cost, not interpreter speed.

Both modes must preserve one-serializability across the outages: every
trial ends with the full history checks (candidate 1-STG over DB,
Theorem 3's CG over DB ∪ NS) and the traced variants run under the
online protocol auditor — the fast path is only a win if the §4
guarantees survive the ack-early protocol unchanged.

The RPC columns show the 2PC batching at work (coalesced prepare/commit
envelopes, piggybacked decisions). The committed-count gap is modest,
not dramatic — under contention throughput is lock-bound, and the
pipelined prepares leave in-doubt participants blocked across a
*coordinator* outage (they hold X locks until the coordinator's stable
decision log is reachable again), so individual unlucky schedules can
favour the baseline. The latency win and the failure-free gap are the
robust signals; the reference benchmark's ``steady_rw`` /
``steady_rw_async`` workload pair (``BENCHMARK.json``) isolates them.
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

MODES = ("sync_2pc", "async_quorum")


def plan(
    seed: int = 0,
    trials: int = 4,
    n_sites: int = 4,
    n_items: int = 48,
    duration: float = 600.0,
) -> list[Cell]:
    """``trials`` cells per commit mode, same seeds across modes — the
    two workloads and failure schedules are draw-for-draw identical, so
    every row difference is the commit path."""
    return [
        Cell(
            "e10",
            _one_trial,
            dict(
                mode=mode, seed=seed * 7919 + trial,
                n_sites=n_sites, n_items=n_items, duration=duration,
                # Sparse outages: recovery (type-1 commits + missing-list
                # marking) takes 50-120 sim units, so mtbf must dwarf
                # mttr + recovery or the grid measures recovery churn,
                # not the commit path.
                mtbf=900, n_clients=6,
            ),
            dict(mode=mode, trial=trial),
        )
        for mode in MODES
        for trial in range(trials)
    ]


def assemble(
    cells: list[Cell], results: list, trials: int = 4, **_params
) -> Table:
    table = Table(
        f"E10: commit modes under write-heavy load + failures "
        f"({trials} random runs each)",
        [
            "mode", "runs", "committed", "txns_per_100s",
            "ack_p50", "ack_p99", "rpc_batches", "piggybacked",
            "one_sr_ok", "theorem3_ok",
        ],
    )
    groups: dict[str, list[dict]] = {}
    for cell, verdict in zip(cells, results):
        groups.setdefault(cell.tag["mode"], []).append(verdict)
    for mode in sorted(groups, reverse=True):  # sync baseline first
        verdicts = groups[mode]
        latencies = [x for v in verdicts for x in v["latencies"]]
        table.add_row(
            mode=mode,
            runs=len(verdicts),
            committed=sum(v["committed"] for v in verdicts),
            txns_per_100s=round(
                sum(v["throughput"] for v in verdicts) / len(verdicts) * 100, 1
            ),
            ack_p50=percentile(latencies, 50),
            ack_p99=percentile(latencies, 99),
            rpc_batches=sum(v["batches"] for v in verdicts),
            piggybacked=sum(v["piggybacked"] for v in verdicts),
            one_sr_ok=sum(1 for v in verdicts if v["one_sr"]),
            theorem3_ok=sum(1 for v in verdicts if v["theorem3"]),
        )
    return table


def claims(table: Table) -> list[Claim]:
    """§4's guarantees in both commit modes, and the round async saves."""
    acks = {row["mode"]: row["ack_p50"] for row in table.rows}
    return [
        Claim("e10.one-sr", "§4", "every run of both commit modes is one-serializable",
              *every_run(table.rows, "mode", "one_sr_ok")),
        Claim("e10.theorem3", "§4 Theorem 3", "every run of both commit modes is "
              "Theorem-3 clean", *every_run(table.rows, "mode", "theorem3_ok")),
        Claim("e10.async-acks-sooner", "DESIGN.md §7", "async_quorum's median ack latency "
              "is below sync_2pc's", acks["async_quorum"] < acks["sync_2pc"], acks),
    ]


def _spec(n_items: int) -> WorkloadSpec:
    """Write-heavy but low-contention: the commit path dominates.

    Uniform access over a wide item set keeps lock queues short — under
    heavy contention both modes release X locks at the same instant (the
    drained apply), so throughput converges and only latency differs.
    """
    return WorkloadSpec(
        n_items=n_items, ops_per_txn=3, write_fraction=0.8, zipf_s=0.0
    )


def _one_trial(duration, **params):
    """The grid's cell: the world under the plain builder, plus the
    table's goodput and RPC-batching columns."""
    _kernel, system, result = scenario(build_scheme, duration=duration, **params)
    tms = list(system.tms.values())
    return {
        **result,
        "throughput": result["committed"] / duration,
        "batches": sum(tm.rpc.stats_batches for tm in tms),
        "piggybacked": sum(tm.rpc.stats_decisions_piggybacked for tm in tms),
    }


def scenario(
    build, seed, mode, n_sites, n_items, duration, mtbf, n_clients,
    per_client_streams=False,
):
    """One write-heavy run of commit mode ``mode`` under random outages
    (one per site every ``mtbf`` units on average), quiesced and checked.

    The registry exposes the traced run twice on the identical failure
    plan: ``e10`` is the async fast path, ``e10sync`` the sync 2PC
    baseline.
    """
    spec = _spec(n_items)
    kernel, system = build(
        "rowaa", seed, n_sites, spec.initial_items(),
        txn_config=TxnConfig(rpc_timeout=10.0, commit_mode=mode),
    )
    rngs = RngRegistry(seed)
    failures = FailureSchedule.random_failures(
        system.cluster.site_ids, rngs.stream(FailureSchedule.RNG_STREAM),
        horizon=duration * 0.8, mtbf=mtbf, mttr=40,
    )
    failures.apply(system)
    pool = ClientPool(
        system, WorkloadGenerator(spec, rngs.stream("workload.generator")),
        n_clients=n_clients, think_time=0.5, retries=2,
        per_client_streams=per_client_streams,
    )
    pool.start(duration)
    kernel.run(until=duration)
    quiesce(kernel, system, grace=800.0)
    latencies = [x for tm in system.tms.values() for x in tm.stats.ack_latencies]
    return kernel, system, {
        "commit_mode": mode,
        "committed": pool.stats.committed,
        "latencies": latencies,
        "ack_p50": percentile(latencies, 50),
        "ack_p99": percentile(latencies, 99),
        "one_sr": check_one_sr(
            system.recorder, item_filter=db_item_filter
        ).ok,
        "theorem3": check_theorem3(system.recorder).ok,
    }
