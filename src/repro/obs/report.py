"""The recovery-timeline reporter.

Computes, per site, the temporal quantities the paper's evaluation is
about (experiments E2/E4/E6):

* **MTTR** — mean crash-to-operational downtime, from the
  ``recovery.downtime`` histogram;
* **time to nominally up** — power-on to the type-1 commit making the
  site operational (§3.4 step 4), from the recovery records;
* **time to fully current** — power-on to the copiers draining the last
  unreadable copy; ``None`` while copies are still unreadable;
* **missing-list drain curve** — the ``recovery.unreadable`` time series
  (unreadable count after each completed refresh);
* **session-mismatch rejections** — how often this site's DM bounced a
  stale-view request (the protocol's correctness tax).

Three analysis layers ride along when their inputs were recorded: the
per-category **latency budget** (:mod:`repro.obs.critpath`, when spans
are on), the **throughput trough** figures per outage
(:mod:`repro.obs.timeseries`, when a windowed sampler was attached),
and the **audit** verdict (:mod:`repro.audit`, when an auditor was
attached). Host-CPU numbers never enter it, even with a profiler
attached: the report is a function of the scenario and the seed.

Works on any :class:`~repro.system.DatabaseSystem`; the copier/recovery
fields appear when the system has the corresponding services (i.e. a
:class:`~repro.core.system.RowaaSystem`).
"""

from __future__ import annotations

import typing


def recovery_timeline(system: typing.Any) -> dict:
    """Build the recovery-timeline report as a plain dict."""
    registry = system.obs.registry
    copiers = getattr(system, "copiers", {})
    recoveries = getattr(system, "recoveries", {})

    sites: dict[int, dict] = {}
    for site_id in system.cluster.site_ids:
        site = system.cluster.site(site_id)
        # A report reads the registry, never adds to it: an instrument
        # a site never used stays out of the metrics snapshot.
        downtime = (
            registry.histogram("recovery.downtime", site_id)
            if registry.has("recovery.downtime", site_id)
            else None
        )
        records = recoveries[site_id].records if site_id in recoveries else []
        to_operational = [
            r.time_to_operational for r in records if r.time_to_operational is not None
        ]
        entry: dict = {
            "crashes": site.crash_count,
            "recoveries": len(records),
            "mttr": downtime.mean if downtime is not None and downtime.count else None,
            "time_to_nominally_up": (
                sum(to_operational) / len(to_operational) if to_operational else None
            ),
            "session_mismatch_rejections": int(
                registry.value("dm.session_mismatch", site_id)
            ),
            "marked_items": sum(r.marked_items for r in records),
            "type1_attempts": sum(r.type1_attempts for r in records),
            "type2_runs": sum(r.type2_runs for r in records),
        }
        wal = site.wal
        service = copiers.get(site_id)
        entry["wal"] = {
            "durable_lsn": wal.log.durable_lsn,
            "checkpoint_lag": wal.checkpoint_lag,
            "checkpoints": wal.stats.checkpoints,
            "truncated_records": wal.log.truncated_records,
            "replays": wal.stats.replays,
            "records_replayed": wal.stats.records_replayed,
            "records_lost_unflushed": wal.stats.records_lost_unflushed,
            "records_shipped": (
                service.stats.records_shipped if service is not None else 0
            ),
            "copies_performed": (
                service.stats.copies_performed if service is not None else 0
            ),
        }
        if site_id in copiers and entry["recoveries"]:
            # Only meaningful for sites that actually came back: a site
            # that never crashed "drains" trivially when its (empty)
            # missing list is first checked.
            service = copiers[site_id]
            last_power_on = site.last_power_on_time
            drained = service.drained_at
            entry["time_to_fully_current"] = (
                drained - last_power_on
                if drained is not None
                and last_power_on is not None
                and drained >= last_power_on
                else None
            )
            entry["drain_curve"] = (
                list(registry.series("recovery.unreadable", site_id).points)
                if registry.has("recovery.unreadable", site_id)
                else []
            )
        sites[site_id] = entry

    mttrs = [e["mttr"] for e in sites.values() if e["mttr"] is not None]
    nominally = [
        e["time_to_nominally_up"]
        for e in sites.values()
        if e["time_to_nominally_up"] is not None
    ]
    fully = [
        e.get("time_to_fully_current")
        for e in sites.values()
        if e.get("time_to_fully_current") is not None
    ]
    report = {
        "sim_time": system.kernel.now,
        "sites": sites,
        "global": {
            "recoveries": sum(e["recoveries"] for e in sites.values()),
            "mean_mttr": sum(mttrs) / len(mttrs) if mttrs else None,
            "mean_time_to_nominally_up": (
                sum(nominally) / len(nominally) if nominally else None
            ),
            "mean_time_to_fully_current": sum(fully) / len(fully) if fully else None,
            "session_mismatch_rejections": int(
                registry.value("dm.session_mismatch")
            ),
        },
    }
    obs = system.obs
    if obs.spans.enabled and obs.spans.spans:
        from repro.obs.critpath import latency_budget

        report["latency"] = latency_budget(obs)
    sampler = getattr(obs, "sampler", None)
    if sampler is not None and sampler.windows:
        from repro.obs.timeseries import outage_stats

        report["throughput"] = outage_stats(sampler)
    auditor = getattr(obs, "audit", None)
    if auditor is not None:
        report["audit"] = auditor.summary()
    return report


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def render_recovery_timeline(report: dict) -> str:
    """Human-readable rendering of :func:`recovery_timeline`."""
    lines = [
        f"recovery timeline @ t={report['sim_time']:.1f}",
        f"{'site':>4}  {'crashes':>7}  {'recov':>5}  {'mttr':>8}  "
        f"{'nominally-up':>12}  {'fully-current':>13}  {'mismatches':>10}",
    ]
    for site_id, entry in sorted(report["sites"].items()):
        lines.append(
            f"{site_id:>4}  {entry['crashes']:>7}  {entry['recoveries']:>5}  "
            f"{_fmt(entry['mttr']):>8}  {_fmt(entry['time_to_nominally_up']):>12}  "
            f"{_fmt(entry.get('time_to_fully_current')):>13}  "
            f"{entry['session_mismatch_rejections']:>10}"
        )
    overall = report["global"]
    lines.append(
        "all:  "
        f"recoveries={overall['recoveries']} "
        f"mean_mttr={_fmt(overall['mean_mttr'])} "
        f"mean_nominally_up={_fmt(overall['mean_time_to_nominally_up'])} "
        f"mean_fully_current={_fmt(overall['mean_time_to_fully_current'])} "
        f"session_mismatches={overall['session_mismatch_rejections']}"
    )
    for site_id, entry in sorted(report["sites"].items()):
        curve = entry.get("drain_curve")
        if curve:
            points = "  ".join(f"t={t:.0f}:{int(v)}" for t, v in curve[:12])
            suffix = " ..." if len(curve) > 12 else ""
            lines.append(f"drain site {site_id}: {points}{suffix}")
    lines.append(
        f"{'site':>4}  {'dur-lsn':>7}  {'ckpt-lag':>8}  {'ckpts':>5}  "
        f"{'truncated':>9}  {'replays':>7}  {'replayed':>8}  {'lost':>4}  "
        f"{'shipped':>7}  {'copied':>6}"
    )
    for site_id, entry in sorted(report["sites"].items()):
        wal = entry["wal"]
        lines.append(
            f"{site_id:>4}  {wal['durable_lsn']:>7}  {wal['checkpoint_lag']:>8}  "
            f"{wal['checkpoints']:>5}  {wal['truncated_records']:>9}  "
            f"{wal['replays']:>7}  {wal['records_replayed']:>8}  "
            f"{wal['records_lost_unflushed']:>4}  {wal['records_shipped']:>7}  "
            f"{wal['copies_performed']:>6}"
        )
    throughput = report.get("throughput")
    if throughput is not None:
        from repro.obs.timeseries import render_outage_stats

        lines.extend(render_outage_stats(throughput))
    latency = report.get("latency")
    if latency is not None and latency["txns"]:
        from repro.obs.critpath import render_latency_budget

        lines.append(render_latency_budget(latency))
    audit = report.get("audit")
    if audit is not None:
        lines.append(
            f"audit: {audit['alerts']} alerts "
            f"({audit['critical']} critical, {audit['warning']} warning), "
            f"{audit['checks']} checks, 1-STG "
            f"{audit['graph']['nodes']} txns / {audit['graph']['edges']} edges"
        )
        for rule, count in sorted(audit["by_rule"].items()):
            lines.append(f"audit rule {rule}: {count}")
    return "\n".join(lines)
