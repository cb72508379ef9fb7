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

from repro.errors import CopyUnreadable, TimestampOrderViolation, TransactionError
from repro.storage.copies import Version
from repro.txn.data_manager import DataManager, WriteIntent
from repro.txn.payloads import ReadRequest, WriteRequest


class TimestampDataManager(DataManager):
    """A DM whose scheduler is timestamp ordering instead of 2PL.

    The lock manager inherited from the base class stays empty (its
    cancel/release calls are harmless no-ops), so the global deadlock
    detector sees no edges — TO cannot deadlock.
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

    def _handle_read(self, request: ReadRequest, src: int) -> typing.Generator:
        yield from ()
        self._check_access(request.expected, request.privileged)
        part = self._participation(request, src)
        if request.item in part.writes:
            intent = part.writes[request.item]
            return intent.value, Version(self.kernel.now, 0, request.txn_seq)
        if not self.site.copies.has(request.item):
            raise TransactionError(f"site {self.site_id} holds no copy of {request.item}")
        copy = self.site.copies.get(request.item)
        if request.peek_unreadable:
            return copy.value, copy.version
        ts = request.txn_seq
        if self._wts.get(request.item, 0) > ts:
            self._reject(request.txn_id, request.item, "read after younger write")
        pending = self._pending_writes.get(request.item, set())
        if any(writer < ts for writer in pending if writer != ts):
            # An older write intent is still in flight; reading the
            # committed value would miss it. Conservative: abort (a
            # waiting variant would be TO with commit dependencies).
            self._reject(request.txn_id, request.item, "older write pending")
        if copy.unreadable:
            self.stats_unreadable_rejections += 1
            for hook in list(self.unreadable_read_hooks):
                hook(request.item)
            raise CopyUnreadable(request.item, self.site_id)
        self._rts[request.item] = max(self._rts.get(request.item, 0), ts)
        return self._serve_read(request, request.item, copy)

    def _handle_write(self, request: WriteRequest, src: int) -> typing.Generator:
        yield from ()
        self._check_access(request.expected, request.privileged)
        part = self._participation(request, src)
        if not self.site.copies.has(request.item):
            raise TransactionError(f"site {self.site_id} holds no copy of {request.item}")
        ts = request.txn_seq
        if self._rts.get(request.item, 0) > ts:
            self._reject(request.txn_id, request.item, "write after younger read")
        part.writes[request.item] = WriteIntent(
            value=request.value,
            version_override=request.version_override,
            applied_sites=request.applied_sites,
            missed_sites=request.missed_sites,
        )
        self._pending_writes.setdefault(request.item, set()).add(ts)
        return True

    # -- decisions ---------------------------------------------------------------

    def _apply_commit(self, txn_id: str, version: Version) -> None:
        part = self._participations.pop(txn_id, None)
        if part is None:
            return
        for item, intent in part.writes.items():
            self._forget_pending(item, part.txn_seq)
            applied = (
                intent.version_override
                if intent.version_override is not None
                else version
            )
            copy = self.site.copies.get(item)
            if applied <= copy.version:
                # Thomas write rule: an older write is skipped. An
                # *equal*-version write (a copier that found the copy
                # already current) still validates it — the mark must
                # clear exactly as a 2PL apply would have.
                if applied == copy.version and copy.unreadable:
                    self.site.copies.clear_unreadable(item)
                continue
            self.site.copies.apply_write(item, intent.value, applied)
            self._wts[item] = max(self._wts.get(item, 0), applied.seq)
            self._write_applied(part, item, intent, applied)
        self._decided[txn_id] = ("committed", version)
        if part.writes and self.site.wal is not None:
            self.site.wal.on_commit()  # group commit, as in the 2PL DM
        self.lock_manager.cancel(txn_id)  # no-op safety

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
