"""Per-site durability facade: journaling, group commit, checkpoints, restart.

:class:`SiteWal` sits between a site's :class:`~repro.storage.copies.CopyStore`
and its :class:`~repro.storage.stable.StableStorage`:

* every committed copy mutation (write / mark / clear) is journaled as a
  redo record: the WAL is the first subscriber of the copy store's
  mutation stream (and ignores the restore path's install / reset);
* the DM calls :meth:`on_commit` once per applied commit — the whole
  transaction's records become durable in **one** stable segment write
  (group commit);
* after ``checkpoint_every`` durable records a *fuzzy checkpoint* is
  taken: the image ``(value, version, unreadable, chain tail)`` of every
  item whose image moved since the last checkpoint, each under its own
  stable key, then a header with the session state, the §5 table and the
  decisions, after which the log is truncated down to the configured
  retention tail — a checkpoint costs O(items dirtied), not O(database);
* on power-on, :meth:`restore` rebuilds copies, versions, unreadable
  marks, session state, the §5 table and the decisions **purely** from
  checkpoint + log replay (the in-memory copy store is explicitly reset
  first — nothing that "magically survived" the crash is consulted).

A site whose stable storage holds no checkpoint (never initialised by a
:class:`~repro.system.DatabaseSystem`, e.g. a bare ``Site`` in a unit
test) has nothing to rebuild from: restore is a no-op.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.events import Future
from repro.storage.copies import Version
from repro.wal.config import WalConfig
from repro.wal.log import CHECKPOINT_ITEM_PREFIX, CHECKPOINT_KEY, RedoLog
from repro.wal.records import LogRecord, from_row, to_row

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.site.site import Site


@dataclasses.dataclass
class WalStats:
    """Durability work accounting (surfaced by the recovery timeline / E9)."""

    records_appended: int = 0
    flushes: int = 0  # group commits (stable segment writes)
    records_flushed: int = 0
    bytes_flushed: int = 0  # serialized bytes of segments + metadata
    checkpoints: int = 0
    checkpoint_items: int = 0  # item images written across all checkpoints
    replays: int = 0  # restarts that went through checkpoint + replay
    records_replayed: int = 0
    records_lost_unflushed: int = 0  # volatile tail dropped by crashes
    prepares_logged: int = 0  # durable prepare intents (async_quorum)
    in_doubt_restored: int = 0  # prepares re-armed as in-doubt at restore


@dataclasses.dataclass
class RestoreResult:
    """What one power-on reconstruction did; what it rebuilt is the
    WAL's own state (``last_checkpoint_lsn``, ``restore_high_commit``,
    the in-doubt prepares and the mirrors)."""

    records_replayed: int


class SiteWal:
    """The write-ahead redo log of one site."""

    def __init__(self, site: "Site", config: WalConfig | None = None) -> None:
        self.site = site
        self.config = config if config is not None else WalConfig()
        self.log = RedoLog(site.stable)
        self.stats = WalStats()
        self._records_since_checkpoint = 0
        self._restoring = False
        self.last_checkpoint_lsn = 0
        #: Durable knowledge at the last restore: the highest commit
        #: sequence number reconstructible from checkpoint + log. This —
        #: not the current high commit, which post-recovery writes keep
        #: advancing — anchors log-shipping catch-up requests.
        self.restore_high_commit = 0
        #: Durable-but-undecided prepare records, by transaction. Mirrors
        #: the durable log (kept exact at checkpoint time, when the
        #: buffer is flushed first) so checkpoints can carry in-doubt
        #: state across log truncation.
        self._unresolved: dict[str, list[LogRecord]] = {}
        #: Items whose live image may differ from their stable
        #: ``wal.ckpt.item.<name>`` blob, in first-dirtied order (a dict,
        #: never a set: tests/test_hash_seed.py). Fed by :meth:`_journal` (write / mark /
        #: clear / create), by the records :meth:`restore` replays, and
        #: by :meth:`mark_dirty`; emptied by every checkpoint. Invariant:
        #: restoring a clean item's blob yields its live image.
        self._dirty: dict[str, None] = {}
        #: Mirrors of the log: the session state (§3.1) and the durable
        #: §5 stale-copy table (its owner: repro.core.identify).
        self.session_last = 0
        self.session_started_at: float | None = None
        self.stale_table: dict[tuple[str, int], tuple] = {}
        #: Mirror of the log: this site's commit decisions as coordinator,
        #: kept until every write site has acknowledged (DESIGN.md §6).
        self.decided: dict[str, Version] = {}
        self._flush_soon: Future | None = None
        site.copies.subscribers.append(self._journal)
        site.crash_hooks.append(self._on_crash)

    # -- journaling (CopyStore subscriber) -------------------------------------

    def _journal(self, op: str, item: str, value: object, version) -> None:
        if self._restoring or op not in ("write", "mark", "clear", "create"):
            return  # replay must not re-journal what it applies
        self._dirty[item] = None
        if op == "create":
            return  # schema, not a mutation: imaged at the next checkpoint
        self.log.append(op, item=item, value=value, version=version)
        self.stats.records_appended += 1

    def mark_dirty(self, item: str) -> None:
        """Declare that ``item``'s image moved outside the journal (the
        mvcc sweep truncated its chain): the next checkpoint rewrites it."""
        self._dirty[item] = None

    def log_session(self, session: int, started_at: float | None = None) -> None:
        """Journal a session reservation/activation and make it durable."""
        self.log.append("session", session=session, session_started_at=started_at)
        self.stats.records_appended += 1
        self.session_last = session
        if started_at is not None:
            self.session_started_at = started_at
        self.flush()

    def log_stale(self, item: str, missed=(), applied=(), value=None, version=None) -> None:
        """Journal that ``item``'s :attr:`stale_table` entries at ``missed``
        became ``(value, version)`` (``stale``), or those at ``applied``
        went (``unstale``). Durable at the next flush."""
        kind = "stale" if missed else "unstale"
        self.log.append(kind, item, value, version, missed_sites=missed, applied_sites=applied)
        self.stats.records_appended += 1

    def log_decision(self, txn_id: str, version: Version) -> None:
        """Journal the coordinator's commit decision and force it: the
        commit point, durable before any COMMIT message leaves."""
        self.log.append("decision", txn_id=txn_id, version=version)
        self.stats.records_appended += 1
        self.decided[txn_id] = version
        self.flush()

    # -- durable prepares (async_quorum commit mode) ---------------------------

    def log_prepare(
        self,
        txn_id: str,
        txn_seq: int,
        coordinator: int,
        participants: tuple[int, ...],
        item: str,
        value: object,
        version_override=None,
        applied_sites: tuple[int, ...] = (),
        missed_sites: tuple[int, ...] = (),
    ) -> LogRecord:
        """Journal one prepared write intent (durable at the next flush).

        Callers group-commit via :meth:`flush_soon`, so concurrent
        prepares landing in the same kernel timestep share one stable
        segment write.
        """
        record = self.log.append(
            "prepare",
            item=item,
            value=value,
            version=version_override,
            txn_id=txn_id,
            txn_seq=txn_seq,
            coordinator=coordinator,
            participants=participants,
            applied_sites=applied_sites,
            missed_sites=missed_sites,
        )
        self.stats.records_appended += 1
        self.stats.prepares_logged += 1
        self._unresolved.setdefault(txn_id, []).append(record)
        return record

    def log_resolve(self, txn_id: str, outcome: str) -> None:
        """Journal the decision for a prepared transaction.

        Lazy durability: the record rides the next group commit (for a
        commit, the apply's own ``on_commit`` flush). Losing an
        unflushed resolve merely re-arms the transaction as in-doubt at
        restart, and resolution is idempotent.
        """
        if self._unresolved.pop(txn_id, None) is None:
            return  # never durably prepared here — nothing to resolve
        self.log.append("resolve", txn_id=txn_id, outcome=outcome)
        self.stats.records_appended += 1

    def unresolved_prepares(self) -> dict[str, tuple[LogRecord, ...]]:
        """Durably prepared, undecided transactions (restart re-arming)."""
        return {txn: tuple(records) for txn, records in self._unresolved.items()}

    def flush_soon(self) -> Future:
        """A future that succeeds once the current tail is group-committed.

        All callers within one kernel timestep share a single flush (and
        thus one stable segment write) on a kernel microtask — the
        group-commit path for pipelined prepares, costing no simulated
        time.
        """
        future = self._flush_soon
        if future is None:
            future = Future(self.site.kernel, name=f"wal.flush@{self.site.site_id}")
            self._flush_soon = future
            self.site.kernel.call_soon(self._run_flush_soon)
        return future

    def _run_flush_soon(self) -> None:
        future, self._flush_soon = self._flush_soon, None
        if future is None:  # pragma: no cover - defensive
            return
        self.flush()
        future.succeed()

    # -- group commit ----------------------------------------------------------

    def on_commit(self) -> None:
        """DM hook: one applied commit — group-commit its records."""
        self.flush()

    def flush(self) -> int:
        """Make all buffered records durable; maybe checkpoint after."""
        if not self.log.buffered:
            return 0
        before = self.site.stable.bytes_written
        flushed = self.log.flush()
        self.stats.flushes += 1
        self.stats.records_flushed += flushed
        self.stats.bytes_flushed += self.site.stable.bytes_written - before
        self._records_since_checkpoint += flushed
        if self._records_since_checkpoint >= self.config.checkpoint_every:
            self.checkpoint()
        for fn in self.site.kernel.probes.wal_flush:
            fn(self.site.site_id)
        return flushed

    # -- checkpoints -----------------------------------------------------------

    def checkpoint(self) -> int:
        """Write a fuzzy checkpoint and truncate the log behind it.

        Returns the checkpoint LSN. Only the items dirtied since the last
        checkpoint are imaged (the genesis checkpoint is the same code
        with every item dirty); every other item's stable image is still
        exact, so replay only needs records *after* this LSN. Write
        order: item images, then the header, then the truncation — a
        checkpoint torn anywhere leaves the old header over images that
        are at worst newer than it, and REDO over a newer image is
        idempotent. The log keeps a ``retain_records`` tail behind the
        checkpoint for log-shipping.
        """
        self.log.flush()  # the image must not predate buffered records
        stable = self.site.stable
        span = None
        obs = self.site.obs
        if obs.spans_on:
            span = obs.spans.start("wal.checkpoint", "wal", self.site.site_id)
        copies = self.site.copies
        mvcc = self.site.mvcc
        for name in self._dirty:
            copy = copies.get(name)
            version = copy.version
            # The chain's other versions (repro.mvcc); restore re-seeds
            # the copy's own.
            tail = mvcc.chain_tail(name, version) if mvcc is not None else ()
            stable.put(
                CHECKPOINT_ITEM_PREFIX + name,
                (copy.value, tuple(version), copy.unreadable, tail),
            )
        checkpoint_lsn = self.log.durable_lsn
        stable.put(
            CHECKPOINT_KEY,
            {
                "lsn": checkpoint_lsn,
                "high_commit": self.log.high_commit,
                "session_last": self.session_last,
                "session_started_at": self.session_started_at,
                "stale_table": self.stale_table,
                "decided": {txn: tuple(version) for txn, version in self.decided.items()},
                # In-doubt prepares survive log truncation through the
                # header (the flush above made them and the mirrors
                # exact), as rows.
                "in_doubt": {
                    txn: tuple(map(to_row, records))
                    for txn, records in self._unresolved.items()
                },
                # The durable snapshot cut (repro.mvcc); 0.0 when off.
                "stale_cut": mvcc.stale_cut if mvcc is not None else 0.0,
            },
        )
        self.last_checkpoint_lsn = checkpoint_lsn
        self.log.truncate(checkpoint_lsn - self.config.retain_records)
        self.stats.checkpoints += 1
        self.stats.checkpoint_items += len(self._dirty)
        self._dirty.clear()
        self._records_since_checkpoint = 0
        if span is not None:
            obs.spans.finish(span)
        for fn in self.site.kernel.probes.wal_checkpoint:
            fn(self.site.site_id)
        return checkpoint_lsn

    @property
    def checkpoint_lag(self) -> int:
        """Durable records not yet covered by a checkpoint."""
        return self.log.durable_lsn - self.last_checkpoint_lsn

    # -- restart ---------------------------------------------------------------

    def restore(self) -> RestoreResult | None:
        """Rebuild copies/versions/marks/session/§5 table/decisions from the log.

        Returns None (and touches nothing) when stable storage holds no
        checkpoint — the site was never initialised through a
        DatabaseSystem, so there is no image to rebuild from.
        """
        stable = self.site.stable
        checkpoint = typing.cast("dict | None", stable.get(CHECKPOINT_KEY))
        if checkpoint is None:
            return None
        obs = self.site.obs
        span = None
        if obs.spans_on:
            span = obs.spans.start("wal.restore", "wal", self.site.site_id)
        self.log.load_meta()  # stable metadata is the authority after a crash
        self._restoring = True
        try:
            copies = self.site.copies
            copies.reset()
            # Prefix scan; stable keys iterate in first-put order, which
            # for item images is the copies' creation order.
            tails: list[tuple[str, tuple]] = []
            for key in stable.keys():
                if not key.startswith(CHECKPOINT_ITEM_PREFIX):
                    continue
                name = key[len(CHECKPOINT_ITEM_PREFIX):]
                value, version, unreadable, tail = typing.cast(
                    tuple, stable.get(key)
                )
                copies.install(name, value, Version(*version), unreadable)
                if tail:
                    tails.append((name, tail))
            # Every replayed record moves its item past its stable image.
            dirty: dict[str, None] = {}
            self.session_last = checkpoint["session_last"]
            self.session_started_at = checkpoint["session_started_at"]
            stale = self.stale_table = checkpoint["stale_table"]
            decided = self.decided = {
                txn: Version(*version) for txn, version in checkpoint["decided"].items()
            }
            high_commit = checkpoint["high_commit"]
            unresolved: dict[str, list[LogRecord]] = {
                txn: list(map(from_row, rows))
                for txn, rows in checkpoint["in_doubt"].items()
            }
            replayed = 0
            for record in self.log.records_after(checkpoint["lsn"]):
                replayed += 1
                if record.kind == "write":
                    copies.install(record.item, record.value, record.version, False)
                    dirty[record.item] = None
                    if record.version is not None:
                        high_commit = max(high_commit, record.version.commit)
                elif record.kind == "mark":
                    if copies.has(record.item):
                        copies.mark_unreadable(record.item)
                        dirty[record.item] = None
                elif record.kind == "clear":
                    if copies.has(record.item):
                        copies.clear_unreadable(record.item)
                        dirty[record.item] = None
                elif record.kind == "session":
                    self.session_last = record.session
                    if record.session_started_at is not None:
                        self.session_started_at = record.session_started_at
                elif record.kind == "stale":
                    version = None if record.version is None else tuple(record.version)
                    for site in record.missed_sites:
                        stale[(record.item, site)] = (record.value, version)
                elif record.kind == "unstale":
                    for site in record.applied_sites:
                        stale.pop((record.item, site), None)
                elif record.kind == "prepare":
                    unresolved.setdefault(record.txn_id, []).append(record)
                elif record.kind == "resolve":
                    unresolved.pop(record.txn_id, None)
                elif record.kind == "decision":  # even one forgotten since
                    decided[record.txn_id] = record.version
            self._unresolved = unresolved
            self._dirty = dirty
            self.stats.in_doubt_restored += len(unresolved)
        finally:
            self._restoring = False
            if span is not None:
                obs.spans.finish(span)
        self.last_checkpoint_lsn = checkpoint["lsn"]
        self._records_since_checkpoint = self.checkpoint_lag
        self.restore_high_commit = high_commit
        mvcc = self.site.mvcc
        if mvcc is not None:
            # The reset/install hooks rebuilt single-version chains during
            # the replay above; hand over the checkpointed chain tails and
            # let the store re-derive its durable snapshot cut.
            mvcc.on_restore(checkpoint["stale_cut"], tails)
        self.stats.replays += 1
        self.stats.records_replayed += replayed
        return RestoreResult(records_replayed=replayed)

    # -- crash -----------------------------------------------------------------

    def _on_crash(self) -> None:
        lost = self.log.discard_unflushed()
        self.stats.records_lost_unflushed += lost
        if lost and self._unresolved:
            # Prepares in the dropped volatile tail were never durable
            # (their flush future gated the prepare ack, never sent).
            durable = self.log.durable_lsn
            for txn in list(self._unresolved):
                kept = [r for r in self._unresolved[txn] if r.lsn <= durable]
                if kept:
                    self._unresolved[txn] = kept
                else:
                    del self._unresolved[txn]
