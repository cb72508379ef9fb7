"""Copier transactions (§3.2) and their scheduling (§5 tradeoffs).

A copier refreshes one unreadable copy: it reads the local nominal
session vector, locates a readable copy of the item at a nominally up
site, and renovates the local copy — carrying the source *version*
across so READ-FROM provenance is preserved (§4). With
``version_skip`` enabled it first peeks at the local version and, when
the copy turns out to be current already, clears the mark without moving
data (the paper's §5 observation about version numbers).

Scheduling (§3.2: "may influence the performance but not the
correctness"): *eager* — the recovery procedure enqueues copiers for all
unreadable copies; *demand* — a read rejected by an unreadable copy
triggers one. Both run as ordinary transactions, concurrently with user
load, only after the recovering site has become operational.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.core.config import RECOVERY_PROBE_TIMEOUT, RowaaConfig
from repro.core.nominal import is_ns_item, ns_item, unreadable_db_count
from repro.errors import (
    CopyUnreadable,
    NetworkError,
    TotalFailure,
    TransactionAborted,
    TransactionError,
)
from repro.sim.kernel import Kernel
from repro.txn.data_manager import DataManager
from repro.txn.manager import TransactionManager
from repro.txn.transaction import TxnKind
from repro.wal import ShipRecord, ShipReply, ShipRequest

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.site.site import Site
    from repro.txn.context import TxnContext

#: Per-item copier lanes in flight per recovering site (eager catch-up).
COPIER_LANES = 4
#: Backoff before retrying a failed copier transaction.
COPIER_RETRY_DELAY = 10.0
#: Copier transaction attempts per item refresh (or log-shipping apply)
#: before its marks are left to the next trigger.
COPIER_MAX_ATTEMPTS = 10


@dataclasses.dataclass
class CopierStats:
    """Work accounting for experiments E4/E5/E9."""

    copies_performed: int = 0
    copies_skipped_version: int = 0  # §5 optimisation hits
    cleared_by_user_write: int = 0
    copier_aborts: int = 0
    total_failures: int = 0
    resurrections: int = 0  # totally-failed items revived by version vote
    bytes_copied: int = 0  # unit-sized values: counts data transfers
    # -- log-shipping catch-up (E9) -------------------------------------
    ship_batches: int = 0  # pages fetched from the serving peer
    records_shipped: int = 0  # log records received across all pages
    ship_applied: int = 0  # shipped writes installed locally
    ship_validated: int = 0  # marks cleared via the final versions map
    ship_bytes: int = 0  # nominal bytes of all ship replies received
    ship_served_records: int = 0  # records this site served to peers
    ship_fallback_truncated: int = 0  # streams refused: peer truncated
    ship_fallback_items: int = 0  # items handed to per-item copy after a stream


class CopierService:
    """Schedules and runs copier transactions at one site."""

    def __init__(
        self,
        kernel: Kernel,
        site: "Site",
        dm: DataManager,
        tm: TransactionManager,
        config: RowaaConfig,
    ) -> None:
        self.kernel = kernel
        self.site = site
        self.dm = dm
        self.tm = tm
        self.config = config
        self.stats = CopierStats()
        self.drained_at: float | None = None
        self._inflight: set[str] = set()
        self._ship_running = False
        if config.copier_mode in ("demand", "both"):
            dm.unreadable_read_hooks.append(self._on_demand_trigger)
        site.rpc.register("wal.ship", self._handle_ship)
        site.crash_hooks.append(self._on_crash)

    def _on_crash(self) -> None:
        self._inflight.clear()
        self._ship_running = False

    # -- scheduling ------------------------------------------------------------

    def reset_drain_marker(self) -> None:
        """Forget the previous recovery's drain time (new recovery epoch)."""
        self.drained_at = None

    def retry_unreadable(self) -> None:
        """Re-enqueue copiers for still-unreadable copies.

        Called when *another* site recovers: copies whose refresh hit
        "totally failed" (no readable source) may be refreshable now.
        Respects the copier mode — demand-only systems rely on reads.
        """
        if not self.site.is_operational:
            return
        if self.config.copier_mode in ("eager", "both"):
            self.start_eager()

    def start_eager(self) -> None:
        """Enqueue catch-up for every currently unreadable copy.

        Called by the recovery manager right after the site becomes
        operational (never before: copiers are ordinary transactions).
        ``catchup_mode`` picks the strategy: per-item copiers, or one
        log-shipping stream from a nominally-up peer.
        """
        if self.config.copier_mode not in ("eager", "both"):
            return
        if self.config.catchup_mode == "log_ship":
            if self._ship_running:
                return
            self._ship_running = True
            self.site.spawn(self._log_ship_catchup(), name="log-ship")
            return
        self._start_item_copy(self._pending_items())

    def _pending_items(self) -> list[str]:
        return [
            item for item in self.site.copies.unreadable_items() if not is_ns_item(item)
        ]

    def _start_item_copy(self, items: typing.Sequence[str]) -> None:
        """Fan per-item copier lanes over ``items`` (the §3.2 scheme)."""
        pending = collections.deque(items)
        if not pending:
            self._check_drained()
            return
        for _lane in range(min(COPIER_LANES, len(pending))):
            self.site.spawn(self._eager_lane(pending), name="copier-lane")

    def _eager_lane(self, pending: collections.deque) -> typing.Generator:
        while pending:
            item = pending.popleft()
            yield from self._refresh_item(item)

    def _on_demand_trigger(self, item: str) -> None:
        if is_ns_item(item) or item in self._inflight:
            return
        if not self.site.is_operational:
            return
        self.site.spawn(self._refresh_item(item), name=f"copier:{item}")

    # -- execution ---------------------------------------------------------------

    def _refresh_item(self, item: str) -> typing.Generator:
        if item in self._inflight:
            return
        self._inflight.add(item)
        obs = self.site.obs
        span = None
        if obs.spans_on:
            span = obs.spans.start(
                f"refresh:{item}", "copier_refresh", self.site.site_id
            )
        try:
            yield from self._refresh_item_inner(item, span)
        finally:
            if span is not None:
                obs.spans.finish(span)
            self._inflight.discard(item)
        self._check_drained()

    def _refresh_item_inner(self, item: str, span=None) -> typing.Generator:
        parent_span = span.span_id if span is not None else None
        for _attempt in range(COPIER_MAX_ATTEMPTS):
            if not self.site.copies.has(item):
                return
            if not self.site.copies.get(item).unreadable:
                self.stats.cleared_by_user_write += 1
                return  # a user write beat us to it (§3.2)
            try:
                outcome = yield from self.tm.run(
                    self._copier_program(item), kind=TxnKind.COPIER,
                    parent_span=parent_span,
                )
            except TransactionAborted as exc:
                if isinstance(exc.__cause__, TotalFailure):
                    # No readable copy anywhere operational: the paper
                    # defers this to a separate protocol (§3.2); keep the
                    # mark and report.
                    self.stats.total_failures += 1
                    return
                self.stats.copier_aborts += 1
                yield self.kernel.timeout(COPIER_RETRY_DELAY)
                continue
            if outcome == "copied":
                self.stats.copies_performed += 1
                self.stats.bytes_copied += 1
            elif outcome == "resurrected":
                self.stats.resurrections += 1
            else:
                self.stats.copies_skipped_version += 1
            return
        self.stats.total_failures += 1

    def _copier_program(self, item: str):
        service = self

        def program(ctx: "TxnContext") -> typing.Generator:
            home = ctx.tm.site_id
            view: dict[int, int] = {}
            for site_id in ctx.tm.catalog.site_ids:
                value, _version = yield from ctx.dm_read(home, ns_item(site_id))
                view[site_id] = int(value)  # type: ignore[call-overload]

            local_value, local_version = yield from ctx.dm_read(
                home, item, expected=view.get(home), peek_unreadable=True
            )

            resident = ctx.tm.catalog.sites_of(item)
            candidates = sorted(
                site for site in resident if site != home and view.get(site, 0) != 0
            )
            source_value = source_version = None
            for site in candidates:
                try:
                    source_value, source_version = yield from ctx.dm_read(
                        site, item, expected=view[site]
                    )
                    break
                except (CopyUnreadable, NetworkError, TransactionError):
                    continue
            if source_version is None:
                # No readable copy anywhere. The paper defers "totally
                # failed" items to a separate protocol (§3.2); ours is the
                # version vote: when EVERY resident site is nominally up,
                # the highest version among all (unreadable) copies is
                # provably the latest committed one — every committed
                # write reached at least one of these stable stores — so
                # it can be resurrected. With residents still down we must
                # keep waiting (a newer version may live there).
                if any(view.get(site, 0) == 0 for site in resident):
                    raise TotalFailure(item)
                best_value, best_version = local_value, local_version
                for site in candidates:
                    value, version = yield from ctx.dm_read(
                        site, item, expected=view[site], peek_unreadable=True
                    )
                    if version > best_version:
                        best_value, best_version = value, version
                yield from ctx.dm_write(
                    home,
                    item,
                    best_value,
                    expected=view.get(home),
                    version_override=best_version,  # type: ignore[arg-type]
                    applied_sites=(home,),
                )
                return "resurrected"

            if service.config.version_skip and source_version == local_version:
                # §5: versions match — no data transfer needed, just clear
                # the mark (still a locked, committed write of the same
                # value, so concurrency control sees it normally).
                yield from ctx.dm_write(
                    home,
                    item,
                    local_value,
                    expected=view.get(home),
                    version_override=local_version,  # type: ignore[arg-type]
                    applied_sites=(home,),
                )
                return "skipped"

            yield from ctx.dm_write(
                home,
                item,
                source_value,
                expected=view.get(home),
                version_override=source_version,  # type: ignore[arg-type]
                applied_sites=(home,),
            )
            return "copied"

        return program

    # -- log-shipping catch-up (serving side) -----------------------------------

    def _handle_ship(self, request: ShipRequest, src: int) -> ShipReply:
        """Serve one page of the missed-update stream (``wal.ship``).

        Filters the retained log suffix to write records of items the
        requester hosts whose commit sequence lies above the requester's
        anchor, tagging each with whether this record is still the peer's
        *current* version. Refuses when truncation dropped any record the
        requester might need.
        """
        del src  # the request names the requester explicitly
        wal = self.site.wal
        if not self.site.is_operational:
            return ShipReply(serving=False, truncated=False)
        catalog = self.tm.catalog
        for item, commit in wal.log.truncated_commit_by_item.items():
            if (
                commit > request.after_commit
                and not is_ns_item(item)
                and request.requester in catalog.sites_of(item)
            ):
                return ShipReply(serving=True, truncated=True)
        copies = self.site.copies
        records: list[ShipRecord] = []
        cursor = request.cursor_lsn
        done = True
        for record in wal.log.records_after(request.cursor_lsn):
            cursor = record.lsn
            if record.kind != "write" or record.item is None:
                continue
            item = record.item
            if is_ns_item(item) or record.version is None:
                continue
            if request.requester not in catalog.sites_of(item):
                continue
            if record.version.commit <= request.after_commit:
                continue
            if not copies.has(item):
                continue
            copy = copies.get(item)
            if copy.unreadable:
                continue  # cannot vouch for our own copy — requester falls back
            records.append(
                ShipRecord(
                    item=item,
                    value=record.value,
                    version=record.version,
                    current=copy.version == record.version,
                )
            )
            if len(records) >= request.batch:
                done = False
                break
        versions: dict[str, object] | None = None
        if done:
            # Final page: vouch for the current version of every readable
            # requester-hosted copy so untouched items can validate-clear
            # locally instead of one remote read each.
            versions = {}
            for item in copies.items():
                if is_ns_item(item) or request.requester not in catalog.sites_of(item):
                    continue
                copy = copies.get(item)
                if not copy.unreadable:
                    versions[item] = copy.version
        self.stats.ship_served_records += len(records)
        return ShipReply(
            serving=True,
            truncated=False,
            records=tuple(records),
            next_cursor=cursor,
            done=done,
            versions=versions,  # type: ignore[arg-type]
        )

    # -- log-shipping catch-up (recovering side) --------------------------------

    def _log_ship_catchup(self) -> typing.Generator:
        obs = self.site.obs
        span = None
        if obs.spans_on:
            span = obs.spans.start("log_ship", "copier_catchup", self.site.site_id)
        try:
            yield from self._log_ship_inner()
        finally:
            if span is not None:
                obs.spans.finish(span)
            self._ship_running = False
        self._check_drained()

    def _log_ship_inner(self) -> typing.Generator:
        if not self._pending_items():
            self._check_drained()
            return
        # Anchor at what was durably reconstructible at restore — NOT the
        # current high commit, which writes seen since becoming
        # operational keep advancing past updates we still miss.
        after_commit = self.site.wal.restore_high_commit
        peer = yield from self._find_ship_peer()
        if peer is None:
            self._start_item_copy(self._pending_items())
            return
        cursor = 0
        versions = None
        while True:
            request = ShipRequest(
                requester=self.site.site_id,
                after_commit=after_commit,
                cursor_lsn=cursor,
                batch=self.config.log_ship_batch,
            )
            try:
                reply = yield self.site.rpc.call(
                    peer,
                    "wal.ship",
                    request,
                    timeout=RECOVERY_PROBE_TIMEOUT,
                )
            except NetworkError:
                self._start_item_copy(self._pending_items())
                return
            if not reply.serving:
                self._start_item_copy(self._pending_items())
                return
            if reply.truncated:
                # The peer dropped records we would need: the stream
                # would silently skip updates. Per-item copy is always
                # complete, so hand everything over (§3.2 fallback).
                self.stats.ship_fallback_truncated += 1
                self._start_item_copy(self._pending_items())
                return
            self.stats.ship_batches += 1
            self.stats.records_shipped += len(reply.records)
            self.stats.ship_bytes += reply.wire_size
            if reply.records:
                yield from self._apply_ship_batch(reply.records)
            cursor = reply.next_cursor
            self._check_drained()
            if reply.done:
                versions = reply.versions
                break
        if versions:
            yield from self._validate_with_versions(versions)
        leftovers = self._pending_items()
        if leftovers:
            # Items the stream could not cover: not hosted/readable at
            # the peer, or shipped only as non-current versions.
            self.stats.ship_fallback_items += len(leftovers)
            self._start_item_copy(leftovers)
        else:
            self._check_drained()

    def _find_ship_peer(self) -> typing.Generator:
        """Probe peers (deterministic order) for one operational server."""
        for site_id in sorted(self.tm.catalog.site_ids):
            if site_id == self.site.site_id:
                continue
            try:
                operational, _session = yield self.site.rpc.call(
                    site_id,
                    "recovery.probe",
                    None,
                    timeout=RECOVERY_PROBE_TIMEOUT,
                )
            except NetworkError:
                continue
            if operational:
                return site_id
        return None

    def _apply_ship_batch(self, records: tuple[ShipRecord, ...]) -> typing.Generator:
        """Install one shipped page as a single copier-kind transaction.

        Only ``current`` records may be applied with a mark-clearing
        write: an intermediate version is still stale data and clearing
        its mark would expose a non-1SR read. Within the page, keep the
        highest current version per item.
        """
        best: dict[str, ShipRecord] = {}
        for rec in records:
            if not rec.current or not self.site.copies.has(rec.item):
                continue
            prev = best.get(rec.item)
            if prev is None or rec.version > prev.version:
                best[rec.item] = rec
        todo = [best[item] for item in sorted(best)]
        if not todo:
            return
        applied = yield from self._run_copier(self._ship_apply_program(todo))
        self.stats.ship_applied += applied

    def _run_copier(self, program) -> typing.Generator:
        """Run ``program`` (returning a count) as a copier-kind
        transaction, retrying aborts after ``COPIER_RETRY_DELAY``; 0 when
        every attempt aborted (per-item copy picks the leftovers up)."""
        for _attempt in range(COPIER_MAX_ATTEMPTS):
            try:
                return (yield from self.tm.run(program, kind=TxnKind.COPIER))
            except TransactionAborted:
                self.stats.copier_aborts += 1
                yield self.kernel.timeout(COPIER_RETRY_DELAY)
        return 0

    def _ship_apply_program(self, records: list[ShipRecord]):
        service = self

        def program(ctx: "TxnContext") -> typing.Generator:
            home = ctx.tm.site_id
            applied = 0
            for rec in records:
                if not service.site.copies.has(rec.item):
                    continue
                local_value, local_version = yield from ctx.dm_read(
                    home, rec.item, peek_unreadable=True
                )
                if local_version > rec.version:
                    continue  # a user write already carried us past this
                value = local_value if local_version == rec.version else rec.value
                yield from ctx.dm_write(
                    home,
                    rec.item,
                    value,
                    version_override=rec.version,  # type: ignore[arg-type]
                    applied_sites=(home,),
                )
                applied += 1
            return applied

        return program

    def _validate_with_versions(self, versions: dict) -> typing.Generator:
        """Clear marks of items whose local version matches the peer's.

        The peer vouched for its current readable versions: a local
        unreadable copy carrying exactly that version missed nothing, so
        the mark can be cleared without moving data (the §5 version
        optimisation, batched)."""
        marked = [item for item in self._pending_items() if item in versions]
        batch = max(1, self.config.log_ship_batch)
        for start in range(0, len(marked), batch):
            chunk = marked[start : start + batch]
            cleared = yield from self._run_copier(
                self._ship_validate_program(chunk, versions)
            )
            self.stats.ship_validated += cleared

    def _ship_validate_program(self, items: list[str], versions: dict):
        service = self

        def program(ctx: "TxnContext") -> typing.Generator:
            home = ctx.tm.site_id
            cleared = 0
            for item in items:
                copies = service.site.copies
                if not copies.has(item) or not copies.get(item).unreadable:
                    continue
                local_value, local_version = yield from ctx.dm_read(
                    home, item, peek_unreadable=True
                )
                if local_version != versions[item]:
                    continue
                yield from ctx.dm_write(
                    home,
                    item,
                    local_value,
                    version_override=local_version,  # type: ignore[arg-type]
                    applied_sites=(home,),
                )
                cleared += 1
            return cleared

        return program

    def _check_drained(self) -> None:
        unreadable = unreadable_db_count(self.site.copies, self.tm.catalog.site_ids)
        # Missing-list drain curve: one point per completed refresh gives
        # the reporter the unreadable-count-over-time trajectory.
        self.site.obs.registry.series(
            "recovery.unreadable", self.site.site_id
        ).append(self.kernel.now, float(unreadable))
        if not unreadable and self.drained_at is None:
            self.drained_at = self.kernel.now
