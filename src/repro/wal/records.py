"""Redo-log record types.

One :class:`LogRecord` is appended for every committed mutation of a
site's copy store, session, durable §5 stale-copy table and decisions:

* ``"write"`` — a committed physical write (value + version), including
  copier renovations and NS/control updates;
* ``"mark"`` / ``"clear"`` — unreadable-mark transitions outside a
  value write (recovery step 2 marking, equal-version validations under
  timestamp ordering), so a restart preserves §3.4's readability state;
* ``"session"`` — a session-number event (reservation or activation):
  the only durable copy of the session state;
* ``"stale"`` / ``"unstale"`` — ``item``'s entries in that table at
  ``missed_sites`` became ``(value, version)``, or those at
  ``applied_sites`` were dropped;
* ``"prepare"`` — a durably prepared write intent under the
  ``async_quorum`` commit mode: the buffered value plus enough 2PC
  context (coordinator, participant set) to re-arm the participation as
  *in-doubt* after a crash and resolve it cooperatively;
* ``"resolve"`` — the observed decision for a previously prepared
  transaction; a restart treats prepares without a matching resolve as
  in-doubt;
* ``"decision"`` — a coordinator's commit decision (``txn_id``, ``version``),
  forced before any COMMIT leaves; no record means "aborted".

Records are redo-only (no undo for committed state: only committed
copy mutations are journaled as ``"write"``; a prepare record journals
an *intent*, which replay re-arms rather than applies) and totally
ordered per site by ``lsn``.

What reaches stable storage is a *row* (:func:`to_row`): the record's
fields as a plain tuple, its version as a bare ``(ts, commit, seq)``
triple. A row names no class, so pickling a segment of rows runs no
Python code and spends no bytes on class references; :func:`from_row`
turns a row read back into a :class:`LogRecord`.
"""

from __future__ import annotations

import typing

from repro.storage.copies import Version


class LogRecord(typing.NamedTuple):
    """One redo record. ``lsn`` is site-local and strictly increasing."""

    lsn: int
    kind: str  # "write" "mark" "clear" "session" "stale" "unstale" "prepare" "resolve" "decision"
    item: str | None = None
    value: object = None
    version: Version | None = None
    session: int | None = None
    session_started_at: float | None = None
    # 2PC context, populated on "prepare"/"resolve"/"decision" records only. The
    # version field doubles as the intent's version_override; item and
    # value carry the buffered write itself.
    txn_id: str | None = None
    txn_seq: int = 0
    coordinator: int | None = None
    participants: tuple[int, ...] = ()
    applied_sites: tuple[int, ...] = ()
    missed_sites: tuple[int, ...] = ()
    outcome: str | None = None  # "committed" | "aborted" on "resolve"


def to_row(record: LogRecord) -> tuple:
    """``record`` as plain data: a tuple of its fields, the version bare."""
    version = record.version
    if version is None:
        return tuple(record)
    row = list(record)
    row[4] = tuple(version)
    return tuple(row)


def from_row(row: tuple) -> LogRecord:
    """The :class:`LogRecord` that :func:`to_row` made ``row`` of."""
    if row[4] is None:
        return LogRecord._make(row)
    fields = list(row)
    fields[4] = Version._make(fields[4])
    return LogRecord._make(fields)
