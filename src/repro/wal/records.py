"""Redo-log record types.

One :class:`LogRecord` is appended for every committed mutation of a
site's copy store:

* ``"write"`` — a committed physical write (value + version), including
  copier renovations and NS/control updates;
* ``"mark"`` / ``"clear"`` — unreadable-mark transitions outside a
  value write (recovery step 2 marking, equal-version validations under
  timestamp ordering), so a restart preserves §3.4's readability state;
* ``"session"`` — a session-number event (reservation or activation),
  making session state recoverable from the log alone.
* ``"prepare"`` — a durably prepared write intent under the
  ``async_quorum`` commit mode: the buffered value plus enough 2PC
  context (coordinator, participant set) to re-arm the participation as
  *in-doubt* after a crash and resolve it cooperatively;
* ``"resolve"`` — the observed decision for a previously prepared
  transaction; a restart treats prepares without a matching resolve as
  in-doubt.

Records are redo-only (no undo for committed state: only committed
copy mutations are journaled as ``"write"``; a prepare record journals
an *intent*, which replay re-arms rather than applies) and totally
ordered per site by ``lsn``.
"""

from __future__ import annotations

import dataclasses

from repro.storage.copies import Version


@dataclasses.dataclass(frozen=True, slots=True)
class LogRecord:
    """One redo record. ``lsn`` is site-local and strictly increasing."""

    lsn: int
    kind: str  # "write" | "mark" | "clear" | "session" | "prepare" | "resolve"
    item: str | None = None
    value: object = None
    version: Version | None = None
    session: int | None = None
    session_started_at: float | None = None
    # 2PC context, populated on "prepare"/"resolve" records only. The
    # version field doubles as the intent's version_override; item and
    # value carry the buffered write itself.
    txn_id: str | None = None
    txn_seq: int = 0
    coordinator: int | None = None
    participants: tuple[int, ...] = ()
    applied_sites: tuple[int, ...] = ()
    missed_sites: tuple[int, ...] = ()
    outcome: str | None = None  # "committed" | "aborted" on "resolve"

    # Every group commit pickles its records. The state a frozen slots
    # dataclass pickles by default is this same list, but found by
    # walking ``dataclasses.fields()`` per record; written out (in
    # declaration order — the stable blobs must stay byte-identical) it
    # costs a tenth as much.
    def __getstate__(self) -> list:
        return [
            self.lsn, self.kind, self.item, self.value, self.version,
            self.session, self.session_started_at, self.txn_id, self.txn_seq,
            self.coordinator, self.participants, self.applied_sites,
            self.missed_sites, self.outcome,
        ]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
