"""Whole-system status reports (per-site tables for operators/examples)."""

from __future__ import annotations

from repro.core.nominal import unreadable_db_count
from repro.harness.metrics import mean
from repro.harness.tables import Table
from repro.system import DatabaseSystem


def site_report(system: DatabaseSystem) -> Table:
    """One row per site: status, transaction counters, lock pressure."""
    table = Table(
        "Per-site status",
        [
            "site",
            "status",
            "committed",
            "aborted",
            "refused",
            "mean_latency",
            "session",
            "unreadable",
        ],
    )
    for site_id in system.cluster.site_ids:
        site = system.cluster.site(site_id)
        tm = system.tms[site_id]
        sessions = getattr(system, "sessions", None)
        unreadable = unreadable_db_count(site.copies, system.cluster.site_ids)
        table.add_row(
            site=site_id,
            status=site.status.value,
            committed=tm.stats.committed,
            aborted=tm.stats.aborted,
            refused=tm.stats.refused,
            mean_latency=mean(tm.stats.commit_latencies),
            session=sessions[site_id].current if sessions else None,
            unreadable=unreadable,
        )
    return table


def abort_report(system: DatabaseSystem) -> Table:
    """Abort reasons across all TMs — the first thing to read when a
    workload underperforms."""
    reasons: dict[str, int] = {}
    for tm in system.tms.values():
        for reason, count in tm.stats.aborts_by_reason.items():
            reasons[reason] = reasons.get(reason, 0) + count
    table = Table("Aborts by reason", ["reason", "count"])
    for reason in sorted(reasons, key=reasons.get, reverse=True):  # type: ignore[arg-type]
        table.add_row(reason=reason, count=reasons[reason])
    return table


def network_report(system: DatabaseSystem) -> Table:
    """Network counters, including drop categories."""
    stats = system.cluster.network.stats.snapshot()
    table = Table("Network", ["counter", "value"])
    for key in (
        "sent",
        "local_sent",
        "delivered",
        "dropped_dst_down",
        "dropped_src_down",
        "dropped_loss",
        "dropped_partition",
    ):
        table.add_row(counter=key, value=stats[key])
    return table


def full_report(system: DatabaseSystem) -> str:
    """All report tables rendered together."""
    parts = [site_report(system).render(), abort_report(system).render(),
             network_report(system).render()]
    return "\n\n".join(parts)
