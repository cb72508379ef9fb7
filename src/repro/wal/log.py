"""The append-only redo log, group-committed through stable storage.

Layout in the site's :class:`~repro.storage.stable.StableStorage` — every
blob plain data (tuples, dicts, numbers, strings), so pickling one runs
no Python code:

* ``wal.seg.<n>`` — one *segment* per group commit: the tuple of the
  rows (:func:`~repro.wal.records.to_row`) of the records flushed
  together. Segment ids are consecutive and never reused;
* ``wal.meta`` — the four counters every group commit moves, as a tuple:
  next LSN, durable LSN, next segment id, and the highest commit sequence
  number among durable write records. Fixed size, rewritten by every
  flush;
* ``wal.dir`` — what only truncation moves, as a pair: the id of the
  first retained segment and the truncated-through LSN. Fixed size,
  rewritten by :meth:`RedoLog.truncate` (i.e. at checkpoints), never by
  a flush;
* ``wal.ckpt`` — the header of the last fuzzy checkpoint: its LSN, the
  high-commit watermark, the session state, the §5 table, the commit
  decisions (bare triples), the in-doubt prepares (as rows) and the mvcc
  stale cut. Fixed size but for the table, the decisions and the
  prepares (written by :class:`~repro.wal.wal.SiteWal`, not here);
* ``wal.ckpt.item.<name>`` — the durable image of one copy, as plain
  tuples: ``(value, (ts, commit, seq), unreadable, chain tail)``.
  Rewritten by a checkpoint only when the image moved since the last
  one; never deleted (copies are not).

Cost model: every :meth:`RedoLog.flush` is exactly one stable segment
put plus one O(1) ``wal.meta`` put — independent of how many items the
site holds and of how much log it retains. :meth:`RedoLog.truncate`
reads no segment (the directory's LSN bounds say what it drops) and
writes one O(1) ``wal.dir`` put plus one delete per dropped segment. A
checkpoint is one small put per item whose image moved since the last
checkpoint plus the header put, then a truncation — independent of how
many items the site holds. Restart pays instead:
:meth:`RedoLog.load_meta` reads every retained segment ``[first
retained, next_segment)`` once, for its LSN bounds, and
``SiteWal.restore`` scans the stable keys for the ``wal.ckpt.item.``
prefix and reads every item image back.

Invariants:

* LSNs are strictly increasing; a record is *durable* iff
  ``lsn <= durable_lsn`` (everything above sits in the volatile append
  buffer and is lost by a crash — the owner counts those losses);
* segments partition the durable LSN range ``(truncated_through,
  durable_lsn]`` in order, without gaps (a crash re-issues the LSNs of
  the dropped tail), so the log has truncated exactly
  ``truncated_through`` records. A log-shipping peer streams whatever
  it still holds; the requester item-copies what the stream did not
  cover (``repro.core.copier``), so truncation never refuses a stream.
"""

from __future__ import annotations

import typing

from repro.storage.stable import StableStorage
from repro.wal.records import LogRecord, from_row, to_row

META_KEY = "wal.meta"
DIRECTORY_KEY = "wal.dir"
SEGMENT_PREFIX = "wal.seg."
CHECKPOINT_KEY = "wal.ckpt"
CHECKPOINT_ITEM_PREFIX = "wal.ckpt.item."

#: What ``wal.dir`` stands for until the first truncation writes it:
#: first retained segment, truncated-through LSN.
_NEVER_TRUNCATED = (1, 0)


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
        self.high_commit = 0  # max Version.commit among durable+buffered writes
        self.load_meta()

    # -- metadata persistence -------------------------------------------------

    def load_meta(self) -> None:
        """Re-sync in-memory metadata from stable storage (restart path)."""
        meta = typing.cast("tuple | None", self.stable.get(META_KEY))
        if meta is None:
            return
        self.next_lsn, self.durable_lsn, self._next_segment, self.high_commit = meta
        first_segment, self.truncated_through_lsn = typing.cast(
            tuple, self.stable.get(DIRECTORY_KEY, _NEVER_TRUNCATED)
        )
        # A segment put with no meta put after it has an id at or past
        # ``next_segment``: invisible here, overwritten by the next flush.
        self.segments = []
        for segment_id in range(first_segment, self._next_segment):
            rows = typing.cast(tuple, self.stable.get(f"{SEGMENT_PREFIX}{segment_id}"))
            self.segments.append((segment_id, rows[0][0], rows[-1][0]))

    def _store_meta(self) -> int:
        """Persist the per-flush counters (fixed size)."""
        return self.stable.put(
            META_KEY,
            (self.next_lsn, self.durable_lsn, self._next_segment, self.high_commit),
        )

    def _store_directory(self) -> None:
        """Persist what a truncation changed (fixed size)."""
        first_segment = self.segments[0][0] if self.segments else self._next_segment
        self.stable.put(DIRECTORY_KEY, (first_segment, self.truncated_through_lsn))

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
        rows = tuple([to_row(record) for record in self._buffer])
        self.stable.put(f"{SEGMENT_PREFIX}{segment_id}", rows)
        self.segments.append((segment_id, rows[0][0], rows[-1][0]))
        self.durable_lsn = rows[-1][0]
        self._buffer.clear()
        self._store_meta()
        return len(rows)

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
            rows = typing.cast(
                tuple, self.stable.get(f"{SEGMENT_PREFIX}{segment_id}", ())
            )
            for row in rows:
                if row[0] > lsn:
                    yield from_row(row)

    # -- truncation -----------------------------------------------------------

    def truncate(self, through_lsn: int) -> int:
        """Drop whole segments whose records all have ``lsn <= through_lsn``.

        Returns the number of records dropped, read off the directory's
        LSN bounds: no segment is read. The directory is persisted before
        any segment is deleted: a crash in between leaves segments behind
        the first retained id, which nothing reads.
        """
        if through_lsn <= self.truncated_through_lsn:
            return 0
        segments = self.segments
        drop = 0
        while drop < len(segments) and segments[drop][2] <= through_lsn:
            drop += 1
        if not drop:
            return 0
        drop_ids = [segment_id for segment_id, _first, _last in segments[:drop]]
        dropped = segments[drop - 1][2] - self.truncated_through_lsn
        self.truncated_through_lsn = segments[drop - 1][2]
        del segments[:drop]
        self._store_directory()
        for segment_id in drop_ids:
            self.stable.delete(f"{SEGMENT_PREFIX}{segment_id}")
        return dropped

    @property
    def truncated_records(self) -> int:
        """Records truncated so far: LSNs start at 1 and segments
        partition the durable range without gaps."""
        return self.truncated_through_lsn

    @property
    def buffered(self) -> int:
        """Records appended but not yet durable."""
        return len(self._buffer)
