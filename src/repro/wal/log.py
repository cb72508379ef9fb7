"""The append-only redo log, group-committed through stable storage.

Layout in the site's :class:`~repro.storage.stable.StableStorage`:

* ``wal.seg.<n>`` — one *segment* per group commit: the tuple of
  records flushed together. Segment ids are consecutive and never
  reused;
* ``wal.meta`` — the four counters every group commit moves: next LSN,
  durable LSN, next segment id, and the highest commit sequence number
  among durable write records. Fixed size, rewritten by every flush;
* ``wal.dir`` — what only truncation moves: the directory of the
  segments retained behind the last truncation, the id of the first
  segment flushed after it, the truncation watermarks and the per-item
  truncated-commit map. Rewritten by :meth:`RedoLog.truncate` (i.e. at
  checkpoints), never by a flush;
* ``wal.ckpt`` — the header of the last fuzzy checkpoint: its LSN, the
  high-commit watermark, the session state, the in-doubt prepares and
  the mvcc stale cut. Fixed size but for the in-doubt prepares (written
  by :class:`~repro.wal.wal.SiteWal`, not here);
* ``wal.ckpt.item.<name>`` — the durable image of one copy, as plain
  tuples: ``(value, (ts, commit, seq), unreadable, chain tail)``.
  Rewritten by a checkpoint only when the image moved since the last
  one; never deleted (copies are not).

Cost model: every :meth:`RedoLog.flush` is exactly one stable segment
put plus one O(1) ``wal.meta`` put — independent of how many items the
site holds and of how much log it retains. A checkpoint is one small put
per item whose image moved since the last checkpoint plus the header
put, then a truncation — independent of how many items the site holds.
Restart pays instead: :meth:`RedoLog.load_meta` rebuilds the directory
as the ``wal.dir`` prefix followed by the segments ``[tail_from,
next_segment)``, whose LSN bounds follow from contiguity and from the
segments themselves, and ``SiteWal.restore`` scans the stable keys for
the ``wal.ckpt.item.`` prefix and reads every item image back.

Invariants:

* LSNs are strictly increasing; a record is *durable* iff
  ``lsn <= durable_lsn`` (everything above sits in the volatile append
  buffer and is lost by a crash — the owner counts those losses);
* segments partition the durable LSN range ``(truncated_through,
  durable_lsn]`` in order, without gaps (a crash re-issues the LSNs of
  the dropped tail);
* ``truncated_max_commit`` is the highest commit sequence number among
  ever-truncated write records: a catch-up request anchored at or below
  it cannot be served completely from the log and must fall back to
  per-item copy.
"""

from __future__ import annotations

import typing

from repro.storage.stable import StableStorage
from repro.wal.records import LogRecord

META_KEY = "wal.meta"
DIRECTORY_KEY = "wal.dir"
SEGMENT_PREFIX = "wal.seg."
CHECKPOINT_KEY = "wal.ckpt"
CHECKPOINT_ITEM_PREFIX = "wal.ckpt.item."

#: What ``wal.dir`` stands for until the first truncation writes it.
_NEVER_TRUNCATED: dict = {
    "segments": [],
    "tail_from": 1,
    "truncated_through_lsn": 0,
    "truncated_max_commit": 0,
    "truncated_records": 0,
    "truncated_commit_by_item": {},
}


class RedoLog:
    """Per-site append-only redo log over a :class:`StableStorage`."""

    def __init__(self, stable: StableStorage) -> None:
        self.stable = stable
        self._buffer: list[LogRecord] = []
        self.next_lsn = 1
        self.durable_lsn = 0
        #: Segment directory: ``(segment_id, first_lsn, last_lsn)``.
        self.segments: list[tuple[int, int, int]] = []
        self._next_segment = 1
        self.truncated_through_lsn = 0
        self.truncated_max_commit = 0
        self.truncated_records = 0
        #: Per-item highest commit sequence ever truncated (write records
        #: only). Lets a catch-up server gate precisely: only truncated
        #: commits of items the *requester* hosts can invalidate a stream.
        self.truncated_commit_by_item: dict[str, int] = {}
        self.high_commit = 0  # max Version.commit among durable+buffered writes
        self.load_meta()

    # -- metadata persistence -------------------------------------------------

    def load_meta(self) -> None:
        """Re-sync in-memory metadata from stable storage (restart path)."""
        meta = typing.cast("dict | None", self.stable.get(META_KEY))
        if meta is None:
            return
        self.next_lsn = meta["next_lsn"]
        self.durable_lsn = meta["durable_lsn"]
        self._next_segment = meta["next_segment"]
        self.high_commit = meta["high_commit"]
        directory = typing.cast(
            dict, self.stable.get(DIRECTORY_KEY, _NEVER_TRUNCATED)
        )
        # Copied: ``get`` hands out private blobs, the default it does not.
        self.segments = list(directory["segments"])
        self.truncated_through_lsn = directory["truncated_through_lsn"]
        self.truncated_max_commit = directory["truncated_max_commit"]
        self.truncated_records = directory["truncated_records"]
        self.truncated_commit_by_item = dict(directory["truncated_commit_by_item"])
        # Segments flushed since the last truncation: contiguity gives each
        # one's first LSN and the newest one's last (the durable LSN); only
        # the boundaries in between have to be read back.
        first = self.segments[-1][2] + 1 if self.segments else self.truncated_through_lsn + 1
        for segment_id in range(directory["tail_from"], self._next_segment):
            last = self.durable_lsn
            if segment_id + 1 < self._next_segment:
                records = typing.cast(
                    tuple, self.stable.get(f"{SEGMENT_PREFIX}{segment_id}")
                )
                last = records[-1].lsn
            self.segments.append((segment_id, first, last))
            first = last + 1

    def _store_meta(self) -> int:
        """Persist the per-flush counters (fixed size)."""
        return self.stable.put(
            META_KEY,
            {
                "next_lsn": self.next_lsn,
                "durable_lsn": self.durable_lsn,
                "next_segment": self._next_segment,
                "high_commit": self.high_commit,
            },
        )

    def _store_directory(self) -> None:
        """Persist what a truncation changed; every directory entry is a
        retained segment, so later flushes start at ``_next_segment``."""
        self.stable.put(
            DIRECTORY_KEY,
            {
                "segments": self.segments,
                "tail_from": self._next_segment,
                "truncated_through_lsn": self.truncated_through_lsn,
                "truncated_max_commit": self.truncated_max_commit,
                "truncated_records": self.truncated_records,
                "truncated_commit_by_item": self.truncated_commit_by_item,
            },
        )

    # -- appending ------------------------------------------------------------

    def append(
        self,
        kind: str,
        item: str | None = None,
        value: object = None,
        version=None,
        session: int | None = None,
        session_started_at: float | None = None,
        txn_id: str | None = None,
        txn_seq: int = 0,
        coordinator: int | None = None,
        participants: tuple[int, ...] = (),
        applied_sites: tuple[int, ...] = (),
        missed_sites: tuple[int, ...] = (),
        outcome: str | None = None,
    ) -> LogRecord:
        """Append one record to the volatile tail; durable at next flush."""
        # Positional, in LogRecord's field order: once per journaled
        # mutation, and fourteen keywords would cost a fifth again.
        record = LogRecord(
            self.next_lsn, kind, item, value, version, session,
            session_started_at, txn_id, txn_seq, coordinator, participants,
            applied_sites, missed_sites, outcome,
        )
        self.next_lsn += 1
        if kind == "write" and version is not None:
            self.high_commit = max(self.high_commit, version.commit)
        self._buffer.append(record)
        return record

    def flush(self) -> int:
        """Group-commit the buffered tail as one segment; returns count."""
        if not self._buffer:
            return 0
        segment_id = self._next_segment
        self._next_segment += 1
        records = tuple(self._buffer)
        self.stable.put(f"{SEGMENT_PREFIX}{segment_id}", records)
        self.segments.append((segment_id, records[0].lsn, records[-1].lsn))
        self.durable_lsn = records[-1].lsn
        self._buffer.clear()
        self._store_meta()
        return len(records)

    def discard_unflushed(self) -> int:
        """Crash path: drop the volatile tail; returns records lost."""
        lost = len(self._buffer)
        self._buffer.clear()
        # Re-issue the lost LSNs: nothing durable ever carried them.
        self.next_lsn = self.durable_lsn + 1
        if lost:
            self._store_meta()
        return lost

    # -- reading --------------------------------------------------------------

    def records_after(self, lsn: int) -> typing.Iterator[LogRecord]:
        """Durable records with ``record.lsn > lsn``, in LSN order."""
        for segment_id, _first, last in self.segments:
            if last <= lsn:
                continue
            records = typing.cast(
                tuple, self.stable.get(f"{SEGMENT_PREFIX}{segment_id}", ())
            )
            for record in records:
                if record.lsn > lsn:
                    yield record

    # -- truncation -----------------------------------------------------------

    def truncate(self, through_lsn: int) -> int:
        """Drop whole segments whose records all have ``lsn <= through_lsn``.

        Returns the number of records dropped. Tracks the highest commit
        sequence number ever truncated so catch-up requests anchored
        behind it can be refused (they would silently miss updates).
        The directory is persisted before any segment is deleted: a
        crash in between leaves unreferenced segments, never a
        directory naming a missing one.
        """
        if through_lsn <= self.truncated_through_lsn:
            return 0
        dropped = 0
        drop_ids: list[int] = []
        keep: list[tuple[int, int, int]] = []
        for segment_id, first, last in self.segments:
            if last > through_lsn:
                keep.append((segment_id, first, last))
                continue
            records = typing.cast(
                tuple, self.stable.get(f"{SEGMENT_PREFIX}{segment_id}", ())
            )
            for record in records:
                if record.kind == "write" and record.version is not None:
                    self.truncated_max_commit = max(
                        self.truncated_max_commit, record.version.commit
                    )
                    if record.item is not None:
                        self.truncated_commit_by_item[record.item] = max(
                            self.truncated_commit_by_item.get(record.item, 0),
                            record.version.commit,
                        )
            dropped += len(records)
            drop_ids.append(segment_id)
            self.truncated_through_lsn = max(self.truncated_through_lsn, last)
        if dropped:
            self.segments = keep
            self.truncated_records += dropped
            self._store_directory()
            for segment_id in drop_ids:
                self.stable.delete(f"{SEGMENT_PREFIX}{segment_id}")
        return dropped

    @property
    def buffered(self) -> int:
        """Records appended but not yet durable."""
        return len(self._buffer)
