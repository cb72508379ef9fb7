"""Spooled-redo recovery (Hammer & Shipman's SDD-1 mechanism [6]).

The first of the two §1 approaches: "all update messages addressed to an
unavailable site are saved reliably in multiple spoolers, and the
recovering site processes all of its missed messages before resuming
normal operations". Here every site that applies a write also spools it
(stably) for the missed sites, giving the multi-spooler redundancy; the
recovering site drains the spools and replays them *before* announcing
itself up.

This is the E2 counterpoint: time-to-operational grows with the number
of updates missed (∝ outage length × write rate), where the paper's
scheme is a constant few round trips. We charge a fixed per-update
replay cost (``REPLAY_COST_PER_UPDATE``), standing in for the log I/O and re-scheduling work the
paper calls "a nontrivial problem".

Keeping only the newest spooled version per (site, item) is the standard
last-writer-wins compression of a redo log — replaying every
intermediate version would only make this baseline look worse.
"""

from __future__ import annotations

import typing

from repro.core.config import RECOVERY_PROBE_TIMEOUT, RowaaConfig
from repro.core.recovery import RecoveryManager, RecoveryRecord
from repro.core.system import RowaaSystem
from repro.errors import NetworkError
from repro.site.site import Site
from repro.storage.copies import Version

_STABLE_KEY = "spool"

#: Sim time a recovering site spends replaying one spooled update.
REPLAY_COST_PER_UPDATE = 0.5


class SpoolTracker:
    """Per-site stable spool of updates missed by down sites."""

    def __init__(self, site: Site) -> None:
        self.site = site
        site.rpc.register("spool.collect", self._handle_collect)
        site.rpc.register("spool.clear", self._handle_clear)

    def _spool(self) -> dict[int, dict[str, tuple[object, Version]]]:
        spool = self.site.stable.get(_STABLE_KEY)
        if spool is None:
            spool = {}
            self.site.stable.put(_STABLE_KEY, spool)
        return spool  # type: ignore[return-value]

    def spooled_for(self, site_id: int) -> dict[str, tuple[object, Version]]:
        return dict(self._spool().get(site_id, {}))

    # -- tracker half ----------------------------------------------------------

    def on_commit_write(
        self,
        item: str,
        applied_sites: tuple[int, ...],
        missed_sites: tuple[int, ...],
        value: object = None,
        version: Version | None = None,
    ) -> None:
        assert version is not None
        spool = self._spool()
        for missed in missed_sites:
            per_site = spool.setdefault(missed, {})
            existing = per_site.get(item)
            if existing is None or existing[1] < version:
                per_site[item] = (value, version)
        for applied in applied_sites:
            per_site = spool.get(applied)
            if per_site is not None:
                per_site.pop(item, None)
        self.site.stable.put(_STABLE_KEY, spool)

    # -- RPC handlers ----------------------------------------------------------------

    def _handle_collect(self, recovering: int, src: int) -> dict:
        return self.spooled_for(recovering)

    def _handle_clear(self, recovering: int, src: int) -> bool:
        spool = self._spool()
        spool.pop(recovering, None)
        self.site.stable.put(_STABLE_KEY, spool)
        return True


class SpoolerRecoveryManager(RecoveryManager):
    """Recovery that replays spooled updates *before* rejoining."""

    def _prepare_database(self, record: RecoveryRecord) -> typing.Generator:
        me = self.site.site_id
        merged: dict[str, tuple[object, Version]] = {}
        reached: list[int] = []
        for peer in self.operational_peers():
            try:
                entries = yield self.rpc.call(
                    peer, "spool.collect", me,
                    timeout=RECOVERY_PROBE_TIMEOUT,
                )
            except NetworkError:
                continue
            reached.append(peer)
            for item, (value, version) in entries.items():  # type: ignore[union-attr]
                existing = merged.get(item)
                if existing is None or existing[1] < version:
                    merged[item] = (value, version)
        # Redo: replay in version order, paying the per-update cost.
        for item, (value, version) in sorted(
            merged.items(), key=lambda entry: entry[1][1]
        ):
            yield self.kernel.timeout(REPLAY_COST_PER_UPDATE)
            if not self.site.copies.has(item):
                continue
            copy = self.site.copies.get(item)
            if copy.version < version:
                self.site.copies.apply_write(item, value, version)
        self.site.wal.flush()  # replayed updates become durable together
        record.marked_items = len(merged)  # here: #updates replayed
        record.identified_at = self.kernel.now
        for peer in reached:
            self.rpc.call(peer, "spool.clear", me)
        return None


class SpoolerSystem(RowaaSystem):
    """ROWAA session machinery with spooled-redo instead of copiers.

    Shares the session-number/control-transaction substrate so the E2
    comparison isolates exactly the database-recovery approach: replay
    before rejoining vs mark-and-copy after rejoining.
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault(
            "rowaa_config", RowaaConfig(copier_mode="none", identify_mode="mark-all")
        )
        super().__init__(*args, **kwargs)
        self.spools: dict[int, SpoolTracker] = {}
        for site_id in self.cluster.site_ids:
            # Construction-time wiring by the System subclass (the same
            # sanctioned layer as core/system.py), not protocol logic.
            site = self.cluster.site(site_id)  # replint: disable=REP003
            tracker = SpoolTracker(site)
            self.spools[site_id] = tracker
            self.dms[site_id].stale_tracker = tracker
            self.recoveries[site_id] = SpoolerRecoveryManager(
                self.kernel,
                site,
                self.tms[site_id],
                self.sessions[site_id],
                self.catalog,
                self.cluster,
                self.copiers[site_id],
                self.policies[site_id],
                register_probe=False,  # the replaced manager's probe handler serves
            )
