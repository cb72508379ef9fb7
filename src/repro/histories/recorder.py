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
"""

from __future__ import annotations

import enum
import typing

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


class HistoryRecorder:
    """Append-only log of physical operations plus transaction outcomes."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.committed: set[str] = set()
        self.aborted: set[str] = set()
        self.kinds: dict[str, str] = {INITIAL_TXN: "user"}
        self._seq_to_txn: dict[int, str] = {0: INITIAL_TXN}

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
            time, txn_id, txn_seq, kind, OpType.READ, item, site,
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
        self._append(
            time, txn_id, txn_seq, kind, OpType.WRITE, item, site,
            version_seq, version_ts, version_commit,
        )
        if version_seq == txn_seq:
            # An original write. Copier-style writes carry their source's
            # version, whose writer registered itself when it committed.
            self._seq_to_txn[txn_seq] = txn_id

    def mark_committed(self, txn_id: str) -> None:
        self.committed.add(txn_id)

    def mark_aborted(self, txn_id: str) -> None:
        self.aborted.add(txn_id)

    def _append(
        self,
        time: float,
        txn_id: str,
        txn_seq: int,
        kind: str,
        op: OpType,
        item: str,
        site: int,
        version_seq: int,
        version_ts: float,
        version_commit: int,
    ) -> None:
        self.kinds[txn_id] = kind
        self.ops.append(
            Op(
                len(self.ops), time, txn_id, txn_seq, kind, op, item, site,
                version_seq, version_ts, version_commit,
            )
        )

    # -- queries (used by the checker) ---------------------------------------

    def writer_of_seq(self, version_seq: int) -> str:
        """Transaction id that originally wrote version ``version_seq``."""
        txn = self._seq_to_txn.get(version_seq)
        if txn is None:
            raise KeyError(f"unknown writer for version seq {version_seq}")
        return txn

    def committed_ops(self) -> list[Op]:
        """Ops of committed transactions, in global record order.

        The implicit initial transaction is always considered committed.
        """
        return [op for op in self.ops if op.txn_id in self.committed]
