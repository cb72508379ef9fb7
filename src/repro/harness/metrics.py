"""Small statistics helpers and system-wide metric snapshots."""

from __future__ import annotations

import typing

from repro.obs.metrics import percentile
from repro.system import DatabaseSystem

__all__ = ["mean", "network_totals", "tm_totals"]


def mean(values: typing.Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def tm_totals(system: DatabaseSystem) -> dict:
    """Commit/abort totals and latency stats summed over all TMs."""
    committed = sum(tm.stats.committed for tm in system.tms.values())
    aborted = sum(tm.stats.aborted for tm in system.tms.values())
    refused = sum(tm.stats.refused for tm in system.tms.values())
    latencies: list[float] = []
    for tm in system.tms.values():
        latencies.extend(tm.stats.commit_latencies)
    reasons: dict[str, int] = {}
    for tm in system.tms.values():
        for reason, count in tm.stats.aborts_by_reason.items():
            reasons[reason] = reasons.get(reason, 0) + count
    ro_latencies: list[float] = []
    for tm in system.tms.values():
        ro_latencies.extend(tm.stats.ro_latencies)
    return {
        "committed": committed,
        "aborted": aborted,
        "refused": refused,
        "mean_latency": mean(latencies),
        "p95_latency": percentile(latencies, 95),
        "aborts_by_reason": reasons,
        # Read-only (beginRO) transactions, reported separately: they
        # never hold locks or run 2PC, so folding them into the commit
        # totals above would flatter the RW numbers.
        "ro_committed": sum(tm.stats.ro_committed for tm in system.tms.values()),
        "ro_aborted": sum(tm.stats.ro_aborted for tm in system.tms.values()),
        "ro_refused": sum(tm.stats.ro_refused for tm in system.tms.values()),
        "ro_mean_latency": mean(ro_latencies),
        "ro_p95_latency": percentile(ro_latencies, 95),
    }


def network_totals(system: DatabaseSystem) -> dict:
    """Remote-message counters (local TM↔DM calls excluded)."""
    return system.cluster.network.stats.snapshot()
