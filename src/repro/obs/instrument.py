"""Wiring between the observability layer and the system's components.

``instrument_system`` is called at the end of
:class:`~repro.system.DatabaseSystem` construction and registers
*collectors* — pull-time scrapers over the counters the subsystems
already maintain (``TmStats``, ``NetworkStats``, lock-manager and DM
counters, detector down-events, the kernel's processed-event count).
(The instant timeline is not wired here: the span recorder subscribes
to the kernel's probe bus itself when the timeline is enabled.)

``instrument_rowaa`` adds the protocol-layer sources a plain
``DatabaseSystem`` does not have: copier work accounting and recovery
records. Everything here is duck-typed on purpose: this module imports
no component modules, so it can never create an import cycle.

Metric name catalog: see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import typing

from repro.obs.metrics import percentile


def instrument_system(system: typing.Any) -> None:
    """Register base-layer collectors on ``system``."""
    obs = system.obs
    registry = obs.registry
    kernel = system.kernel
    network = system.cluster.network

    def collect_kernel() -> dict:
        return {("kernel.events_processed", None): float(kernel.events_processed)}

    def collect_network() -> dict:
        stats = network.stats
        return {
            ("net.sent", None): float(stats.sent),
            ("net.delivered", None): float(stats.delivered),
            ("net.local_sent", None): float(stats.local_sent),
            ("net.local_delivered", None): float(stats.local_delivered),
            ("net.dropped_dst_down", None): float(stats.dropped_dst_down),
            ("net.dropped_src_down", None): float(stats.dropped_src_down),
            ("net.dropped_loss", None): float(stats.dropped_loss),
            ("net.dropped_partition", None): float(stats.dropped_partition),
            ("net.dropped_local_down", None): float(stats.dropped_local_down),
            ("net.bytes_sent", None): float(stats.bytes_sent),
            ("net.bytes_delivered", None): float(stats.bytes_delivered),
        }

    def collect_sites() -> dict:
        values: dict = {}
        for site_id, tm in system.tms.items():
            stats = tm.stats
            values[("txn.committed", site_id)] = float(stats.committed)
            values[("txn.aborted", site_id)] = float(stats.aborted)
            values[("txn.refused", site_id)] = float(stats.refused)
            values[("txn.ro_committed", site_id)] = float(stats.ro_committed)
            values[("txn.ro_aborted", site_id)] = float(stats.ro_aborted)
            values[("txn.ro_refused", site_id)] = float(stats.ro_refused)
            values[("tm.commit_ack_lost", site_id)] = float(stats.commit_ack_lost)
            values[("tm.abort_ack_lost", site_id)] = float(stats.abort_ack_lost)
            values[("tm.async_commits", site_id)] = float(stats.async_commits)
            values[("tm.drains_spawned", site_id)] = float(stats.drains_spawned)
            values[("tm.drains_completed", site_id)] = float(stats.drains_completed)
            values[("tm.commit_p50", site_id)] = percentile(stats.ack_latencies, 50)
            values[("tm.commit_p99", site_id)] = percentile(stats.ack_latencies, 99)
            rpc = tm.rpc
            values[("rpc.batches", site_id)] = float(rpc.stats_batches)
            values[("rpc.batched_calls", site_id)] = float(rpc.stats_batched_calls)
            values[("rpc.decisions_piggybacked", site_id)] = float(
                rpc.stats_decisions_piggybacked
            )
        for site_id, dm in system.dms.items():
            values[("dm.session_mismatch", site_id)] = float(
                dm.stats_session_rejections
            )
            values[("dm.unreadable_rejections", site_id)] = float(
                dm.stats_unreadable_rejections
            )
            lock_manager = getattr(dm, "lock_manager", None)
            if lock_manager is not None:
                values[("locks.waits", site_id)] = float(lock_manager.stats_waits)
                values[("locks.grants", site_id)] = float(lock_manager.stats_grants)
        for site_id in system.cluster.site_ids:
            detector = system.cluster.detector(site_id)
            values[("detector.down_events", site_id)] = float(detector.down_events)
        return values

    def collect_wal() -> dict:
        values: dict = {}
        for site_id in system.cluster.site_ids:
            wal = system.cluster.site(site_id).wal
            stats = wal.stats
            values[("wal.records_appended", site_id)] = float(stats.records_appended)
            values[("wal.flushes", site_id)] = float(stats.flushes)
            values[("wal.records_flushed", site_id)] = float(stats.records_flushed)
            values[("wal.bytes_flushed", site_id)] = float(stats.bytes_flushed)
            values[("wal.checkpoints", site_id)] = float(stats.checkpoints)
            values[("wal.checkpoint_items", site_id)] = float(stats.checkpoint_items)
            values[("wal.replays", site_id)] = float(stats.replays)
            values[("wal.records_replayed", site_id)] = float(stats.records_replayed)
            values[("wal.records_lost_unflushed", site_id)] = float(
                stats.records_lost_unflushed
            )
            values[("wal.durable_lsn", site_id)] = float(wal.log.durable_lsn)
            values[("wal.checkpoint_lag", site_id)] = float(wal.checkpoint_lag)
            values[("wal.truncated_records", site_id)] = float(
                wal.log.truncated_records
            )
        return values

    def collect_mvcc() -> dict:
        values: dict = {}
        for site_id, store in getattr(system, "mvcc", {}).items():
            stats = store.stats
            values[("mvcc.ro_served", site_id)] = float(stats.ro_served)
            values[("mvcc.ro_served_while_recovering", site_id)] = float(
                stats.ro_served_stale
            )
            values[("mvcc.gc_reclaimed", site_id)] = float(stats.gc_reclaimed)
            values[("mvcc.gc_sweeps", site_id)] = float(stats.gc_sweeps)
            values[("mvcc.versions_retained", site_id)] = float(
                store.versions_retained()
            )
            values[("mvcc.snapshots_active", site_id)] = float(
                store.active_pins()
            )
        return values

    registry.add_collector(collect_kernel)
    registry.add_collector(collect_network)
    registry.add_collector(collect_sites)
    registry.add_collector(collect_wal)
    registry.add_collector(collect_mvcc)


def instrument_rowaa(system: typing.Any) -> None:
    """Register protocol-layer collectors (copiers, recovery, control)."""
    registry = system.obs.registry

    def collect_protocol() -> dict:
        values: dict = {}
        for site_id, service in system.copiers.items():
            stats = service.stats
            values[("copier.refreshes", site_id)] = float(stats.copies_performed)
            values[("copier.skipped_version", site_id)] = float(
                stats.copies_skipped_version
            )
            values[("copier.aborts", site_id)] = float(stats.copier_aborts)
            values[("copier.total_failures", site_id)] = float(stats.total_failures)
            values[("copier.resurrections", site_id)] = float(stats.resurrections)
            values[("copier.cleared_by_user_write", site_id)] = float(
                stats.cleared_by_user_write
            )
            values[("copier.bytes_copied", site_id)] = float(stats.bytes_copied)
            values[("copier.ship_batches", site_id)] = float(stats.ship_batches)
            values[("copier.records_shipped", site_id)] = float(stats.records_shipped)
            values[("copier.ship_applied", site_id)] = float(stats.ship_applied)
            values[("copier.ship_validated", site_id)] = float(stats.ship_validated)
            values[("copier.ship_bytes", site_id)] = float(stats.ship_bytes)
            values[("copier.ship_served_records", site_id)] = float(
                stats.ship_served_records
            )
            values[("copier.ship_fallback_items", site_id)] = float(
                stats.ship_fallback_items
            )
        for site_id, manager in system.recoveries.items():
            records = manager.records
            values[("recovery.runs", site_id)] = float(len(records))
            values[("recovery.type1_attempts", site_id)] = float(
                sum(record.type1_attempts for record in records)
            )
            values[("recovery.type2_runs", site_id)] = float(
                sum(record.type2_runs for record in records)
            )
            values[("recovery.marked_items", site_id)] = float(
                sum(record.marked_items for record in records)
            )
        for site_id, control in system.controls.items():
            values[("control.type2_committed", site_id)] = float(
                control.type2_committed
            )
            values[("control.type2_aborted", site_id)] = float(control.type2_aborted)
        return values

    registry.add_collector(collect_protocol)
