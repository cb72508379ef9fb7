"""Recording execution histories from the running system.

The recorder is a passive, global observer (the simulation's omniscient
log). DMs report each physical read at execution time and each physical
write at commit-application time; TMs report transaction outcomes. The
checker later projects the log onto committed transactions.

Read provenance: every committed write installs a
:class:`~repro.storage.copies.Version` whose ``seq`` is the *original*
writer's global sequence number — copiers carry their source's version
across unchanged. A read therefore records exactly the paper's READ-FROM
relation (§4: "a transaction reads NS[k] from the control transaction
that assigned the session number originally rather than from the one
that renovates the local copy"), while copier writes are still visible
as physical write records for the 1-STG construction.

Storage is by column, not by object: the log grows with the history, so
each op is one row of typed :mod:`array` columns (34 bytes), and what is
the same for every op of a transaction — its id, sequence number, kind
and outcome — is kept once, in a transaction table the rows index into.
Readers never see the rows: :attr:`HistoryRecorder.ops` and
:meth:`HistoryRecorder.committed_ops` build :class:`Op` tuples on demand.
The package's own checks scan ``_committed_rows()`` instead: the same
fields as plain tuples, so a check builds no ``Op`` per op.
"""

from __future__ import annotations

import enum
import itertools
import typing
from array import array

INITIAL_TXN = "T0@0"
"""Name of the implicit initial transaction that wrote every copy (§4)."""


class OpType(enum.Enum):
    READ = "r"
    WRITE = "w"


class Op(typing.NamedTuple):
    """One physical operation in the history (an immutable named tuple:
    one is recorded per read and per applied write).

    ``version_seq`` is the original writer's sequence number: for a READ,
    the provenance of the value observed; for a WRITE, the writer itself
    (which differs from ``txn_seq`` only for copier writes).
    Versions order by ``(version_ts, version_commit, version_seq)`` —
    commit timestamp with the global commit counter as tie-break. Writer
    sequence numbers alone do NOT follow commit order (two concurrent
    transactions can commit in the opposite order to their start order),
    and timestamps alone can collide within one simulated instant.
    """

    index: int
    time: float
    txn_id: str
    txn_seq: int
    kind: str  # "user" | "control" | "copier"
    op: OpType
    item: str
    site: int
    version_seq: int
    version_ts: float = 0.0
    version_commit: int = 0

    @property
    def version_key(self) -> tuple[float, int, int]:
        return (self.version_ts, self.version_commit, self.version_seq)


class UnrecordableOp(ValueError):
    """An op the log cannot hold as given: a value outside its column's
    range (a sequence or commit number < 0 or ≥ 2**32, a site id ≥
    2**16), a kind other than ``user``/``control``/``copier``, or a
    transaction whose sequence number or kind differs from the one its
    earlier ops recorded. Raised; never wrapped or dropped."""


#: One row per op: (field, typecode). ``I`` holds 0 … 2**32 - 1, ``H``
#: 0 … 65535, ``B`` 0 … 255; ``txn`` and ``item`` are rows of the
#: recorder's transaction and item tables.
_COLUMNS = (
    ("time", "d"),
    ("txn", "I"),
    ("write", "B"),
    ("item", "I"),
    ("site", "H"),
    ("version_seq", "I"),
    ("version_ts", "d"),
    ("version_commit", "I"),
)
_OP_TYPES = (OpType.READ, OpType.WRITE)
#: A transaction's kind is stored as its position here; 0 (``None``)
#: until its first op, for one whose outcome came first.
_KINDS = (None, "user", "control", "copier")
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS) if kind}
# Transaction flags.
_COMMITTED = 1
_ABORTED = 2
_WROTE = 4  # recorded an original write: ``writer_of_seq`` names it


class HistoryRecorder:
    """Append-only log of physical operations plus transaction outcomes."""

    def __init__(self) -> None:
        self._columns = tuple(array(code) for _field, code in _COLUMNS)
        # The transaction table: a row per transaction, in first-seen
        # order, which is the key order of ``_txns`` (id -> row). The item
        # table is kept the same way.
        self._txns: dict[str, int] = {}
        self._txn_seq = array("I")
        self._txn_kind = bytearray()
        self._txn_flags = bytearray()
        self._items: dict[str, int] = {}
        self._writers: dict[int, str] | None = None  # seq -> id, built on demand
        # T0 has a kind and no ops, and wrote every initial version.
        self._txn_flags[self._first_op(INITIAL_TXN, 0, "user")] = _WROTE

    # -- recording (called by DMs/TMs) -------------------------------------

    def record_read(
        self,
        time: float,
        txn_id: str,
        txn_seq: int,
        kind: str,
        item: str,
        site: int,
        version_seq: int,
        version_ts: float = 0.0,
        version_commit: int = 0,
    ) -> None:
        self._append(
            time, txn_id, txn_seq, kind, 0, item, site,
            version_seq, version_ts, version_commit,
        )

    def record_write(
        self,
        time: float,
        txn_id: str,
        txn_seq: int,
        kind: str,
        item: str,
        site: int,
        version_seq: int,
        version_ts: float = 0.0,
        version_commit: int = 0,
    ) -> None:
        txn = self._append(
            time, txn_id, txn_seq, kind, 1, item, site,
            version_seq, version_ts, version_commit,
        )
        if version_seq == txn_seq:
            # An original write. Copier-style writes carry their source's
            # version, whose writer registered itself when it committed.
            self._txn_flags[txn] |= _WROTE
            self._writers = None

    def mark_committed(self, txn_id: str) -> None:
        self._txn_flags[self._txn_row(txn_id)] |= _COMMITTED

    def mark_aborted(self, txn_id: str) -> None:
        self._txn_flags[self._txn_row(txn_id)] |= _ABORTED

    def _txn_row(self, txn_id: str) -> int:
        row = self._txns.get(txn_id)
        if row is None:
            row = self._txns[txn_id] = len(self._txn_seq)
            self._txn_seq.append(0)
            self._txn_kind.append(0)
            self._txn_flags.append(0)
        return row

    def _first_op(self, txn_id: str, txn_seq: int, kind: str) -> int:
        """Fill in a transaction's row at its first op."""
        code = _KIND_CODES.get(kind)
        if code is None:
            raise UnrecordableOp(f"{txn_id}: unknown transaction kind {kind!r}")
        row = self._txn_row(txn_id)
        try:
            self._txn_seq[row] = txn_seq
        except (OverflowError, TypeError) as exc:
            raise UnrecordableOp(f"{txn_id}: txn_seq={txn_seq!r}: {exc}") from None
        self._txn_kind[row] = code
        return row

    def _append(
        self,
        time: float,
        txn_id: str,
        txn_seq: int,
        kind: str,
        write: int,
        item: str,
        site: int,
        version_seq: int,
        version_ts: float,
        version_commit: int,
    ) -> int:
        txn = self._txns.get(txn_id)
        if txn is None or not self._txn_kind[txn]:
            txn = self._first_op(txn_id, txn_seq, kind)
        elif txn_seq != self._txn_seq[txn] or kind != _KINDS[self._txn_kind[txn]]:
            raise UnrecordableOp(
                f"{txn_id} recorded as ({self._txn_seq[txn]}, "
                f"{_KINDS[self._txn_kind[txn]]!r}), now ({txn_seq}, {kind!r})"
            )
        item_row = self._items.get(item)
        if item_row is None:
            item_row = self._items[item] = len(self._items)
        times, txns, writes, items, sites, seqs, stamps, commits = self._columns
        count = len(times)
        try:
            times.append(time)
            txns.append(txn)
            writes.append(write)
            items.append(item_row)
            sites.append(site)
            seqs.append(version_seq)
            stamps.append(version_ts)
            commits.append(version_commit)
        except (OverflowError, TypeError):
            for column in self._columns:
                del column[count:]
            row = (time, txn, write, item_row, site, version_seq, version_ts, version_commit)
            raise _unrecordable(row) from None
        return txn

    # -- queries (used by the checker) ---------------------------------------

    @property
    def ops(self) -> list[Op]:
        """Every recorded op, aborted transactions' included, in record order."""
        return list(_as_ops(self._rows()))

    def committed_ops(self) -> typing.Iterator[Op]:
        """Ops of committed transactions, in global record order: one
        pass, each :class:`Op` built as it is reached.

        The implicit initial transaction is always considered committed.
        """
        return _as_ops(self._committed_rows())

    def _committed_rows(self) -> typing.Iterator[tuple]:
        """:meth:`committed_ops` as plain tuples in :class:`Op`'s field
        order: what this package's checks scan, with no ``Op`` per op."""
        committed = bytes(flags & _COMMITTED for flags in self._txn_flags)
        return self._rows(committed)

    @property
    def kinds(self) -> dict[str, str]:
        """Kind of every transaction that has an op (and of T0)."""
        return {
            txn_id: _KINDS[code] for txn_id, code in zip(self._txns, self._txn_kind) if code
        }

    @property
    def committed(self) -> set[str]:
        return self._flagged(_COMMITTED)

    @property
    def aborted(self) -> set[str]:
        return self._flagged(_ABORTED)

    def writer_of_seq(self, version_seq: int) -> str:
        """Transaction id that originally wrote version ``version_seq``."""
        txn = self.writers().get(version_seq)
        if txn is None:
            raise KeyError(f"unknown writer for version seq {version_seq}")
        return txn

    def writers(self) -> dict[int, str]:
        """Version seq -> the transaction that originally wrote it (T0
        for 0). Built at the first query after an original write."""
        if self._writers is None:
            self._writers = {
                seq: txn_id
                for txn_id, seq, flags in zip(self._txns, self._txn_seq, self._txn_flags)
                if flags & _WROTE
            }
        return self._writers

    def _flagged(self, flag: int) -> set[str]:
        return {txn_id for txn_id, flags in zip(self._txns, self._txn_flags) if flags & flag}

    def _rows(self, txn_selected: bytes | None = None) -> typing.Iterator[tuple]:
        """Lazily, one tuple in :class:`Op`'s field order per row (per row
        whose transaction is selected), in record order, of the rows
        recorded by the time of the call."""
        time, txn, write, item, site, version_seq, version_ts, version_commit = self._columns
        txn = txn.tolist()  # read four times below: one int per op, not four
        txn_ids = list(self._txns)
        seqs = self._txn_seq.tolist()  # one int per transaction, not per op
        kinds = [_KINDS[code] for code in self._txn_kind]
        fields = zip(
            range(len(time)),
            time,
            map(txn_ids.__getitem__, txn),
            map(seqs.__getitem__, txn),
            map(kinds.__getitem__, txn),
            map(_OP_TYPES.__getitem__, write),
            map(list(self._items).__getitem__, item),
            site,
            version_seq,
            version_ts,
            version_commit,
        )
        if txn_selected is not None:
            fields = itertools.compress(fields, map(txn_selected.__getitem__, txn))
        return fields


def _as_ops(rows: typing.Iterator[tuple]) -> typing.Iterator[Op]:
    # ``tuple.__new__(Op, row)`` is what ``Op._make`` does, minus a
    # Python-level call per op.
    return map(tuple.__new__, itertools.repeat(Op), rows)


def _unrecordable(row: tuple) -> UnrecordableOp:
    """The error naming the first value of ``row`` its column cannot hold."""
    for (field, code), value in zip(_COLUMNS, row):
        try:
            array(code, [value])
        except (OverflowError, TypeError) as exc:
            return UnrecordableOp(f"{field}={value!r} does not fit column {code!r}: {exc}")
    return UnrecordableOp(f"row {row!r} does not fit its columns")
