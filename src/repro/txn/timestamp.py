"""Timestamp-ordering concurrency control (the second member of the
paper's "large group of concurrency control algorithms", §1).

The recovery algorithm only requires that the system's concurrency
control yields histories with acyclic conflict graphs over DB ∪ NS
(Theorem 3 is stated against the DCP/DSR class). Strict 2PL is the
default; this module provides classical timestamp ordering (TO) as an
alternative, demonstrating that the session-number machinery composes
with a lock-free scheduler unchanged — control transactions, copiers
and the recovery procedure run on top of either.

Scheme (deferred writes + presumed-abort 2PC, conservative conflicts):

* a transaction's timestamp is its globally unique sequence number
  (assigned at start, monotone with start order);
* READ(x):   reject if committed ``wts(x) > ts`` or a *pending* write
  intent with smaller timestamp exists (we would miss it); else set
  ``rts(x) = max(rts, ts)`` and read the committed copy;
* WRITE(x):  reject if ``rts(x) > ts`` (a younger reader must not have
  missed us); buffer the intent;
* APPLY at commit follows the Thomas write rule: a write whose version
  is older than the copy's current version is skipped (and not recorded
  — it is invisible to every reader, so the one-copy history is
  unaffected).

Versions under TO order by *timestamp*, not commit instant (the
serialization order IS the timestamp order), so the coordinator builds
``Version(start_time, seq, seq)`` — see
:attr:`~repro.txn.manager.TransactionManager.version_policy`.

Rejections abort the transaction (retries get fresh, larger
timestamps); TO trades deadlock-freedom for a higher abort rate — the
`tests/txn/test_timestamp.py` suite measures both.
"""

from __future__ import annotations

import typing

from repro.errors import TimestampOrderViolation
from repro.storage.copies import Version
from repro.txn.data_manager import DataManager, _Participation


class TimestampDataManager(DataManager):
    """A DM whose scheduler is timestamp ordering instead of 2PL.

    Only the scheduler's three per-item decisions are overridden; every
    operation — single, batched, privileged — walks the base class's one
    admission pipeline to reach them. None of the three touches the lock
    manager, so it stays empty (the base class's cancel calls are
    harmless no-ops) and the global deadlock detector sees no edges — TO
    cannot deadlock.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rts: dict[str, int] = {}
        self._wts: dict[str, int] = {}
        self._pending_writes: dict[str, set[int]] = {}
        self.stats_to_rejections = 0

    def _on_crash(self) -> None:
        super()._on_crash()
        self._rts.clear()
        self._wts.clear()
        self._pending_writes.clear()

    # -- scheduler ------------------------------------------------------------

    def _reject(self, txn_id: str, item: str, detail: str) -> typing.NoReturn:
        self.stats_to_rejections += 1
        raise TimestampOrderViolation(txn_id, item, detail)

    def _read_copy(
        self, txn_id: str, txn_seq: int, item: str, peek: bool
    ) -> typing.Generator:
        yield from ()
        copy = self._copy(item)
        if peek:
            return copy
        if self._wts.get(item, 0) > txn_seq:
            self._reject(txn_id, item, "read after younger write")
        pending = self._pending_writes.get(item, set())
        if any(writer < txn_seq for writer in pending if writer != txn_seq):
            # An older write intent is still in flight; reading the
            # committed value would miss it. Conservative: abort (a
            # waiting variant would be TO with commit dependencies).
            self._reject(txn_id, item, "older write pending")
        if copy.unreadable:
            self._refuse_unreadable(item)
        self._rts[item] = max(self._rts.get(item, 0), txn_seq)
        return copy

    def _admit_write(self, txn_id: str, txn_seq: int, item: str) -> typing.Generator:
        yield from ()
        self._copy(item)
        if self._rts.get(item, 0) > txn_seq:
            self._reject(txn_id, item, "write after younger read")
        self._pending_writes.setdefault(item, set()).add(txn_seq)

    def _install_write(
        self, part: _Participation, item: str, value: object, applied: Version
    ) -> bool:
        self._forget_pending(item, part.txn_seq)
        copy = self.site.copies.get(item)
        if applied <= copy.version:
            # Thomas write rule: an older write is skipped. An
            # *equal*-version write (a copier that found the copy
            # already current) still validates it — the mark must
            # clear exactly as a 2PL apply would have.
            if applied == copy.version and copy.unreadable:
                self.site.copies.clear_unreadable(item)
            return False
        self.site.copies.apply_write(item, value, applied)
        self._wts[item] = max(self._wts.get(item, 0), applied.seq)
        return True

    def _apply_abort(self, txn_id: str) -> None:
        part = self._participations.get(txn_id)
        if part is not None:
            for item in part.writes:
                self._forget_pending(item, part.txn_seq)
        super()._apply_abort(txn_id)

    def _forget_pending(self, item: str, ts: int) -> None:
        pending = self._pending_writes.get(item)
        if pending is not None:
            pending.discard(ts)
            if not pending:
                self._pending_writes.pop(item, None)
