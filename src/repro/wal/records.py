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

import operator

from repro.storage.copies import Version


class LogRecord:
    """One redo record. ``lsn`` is site-local and strictly increasing.

    Immutable: assigning or deleting a field raises :class:`AttributeError`.
    A slots class rather than a frozen dataclass, whose ``__init__`` pays a
    lookup of ``object.__setattr__`` per field, and rather than a
    ``NamedTuple``, which pickles as a constructor call: every group commit
    pickles its records, and the blobs stay byte-identical to the frozen
    dataclass this was — ``copyreg.__newobj__`` and the field list in
    declaration order.
    """

    __slots__ = (
        "lsn", "kind", "item", "value", "version", "session",
        "session_started_at", "txn_id", "txn_seq", "coordinator",
        "participants", "applied_sites", "missed_sites", "outcome",
    )

    lsn: int
    kind: str  # "write" | "mark" | "clear" | "session" | "prepare" | "resolve"
    item: str | None
    value: object
    version: Version | None
    session: int | None
    session_started_at: float | None
    # 2PC context, populated on "prepare"/"resolve" records only. The
    # version field doubles as the intent's version_override; item and
    # value carry the buffered write itself.
    txn_id: str | None
    txn_seq: int
    coordinator: int | None
    participants: tuple[int, ...]
    applied_sites: tuple[int, ...]
    missed_sites: tuple[int, ...]
    outcome: str | None  # "committed" | "aborted" on "resolve"

    def __init__(
        self, lsn: int, kind: str, item: str | None = None, value: object = None,
        version: Version | None = None, session: int | None = None,
        session_started_at: float | None = None, txn_id: str | None = None,
        txn_seq: int = 0, coordinator: int | None = None,
        participants: tuple[int, ...] = (), applied_sites: tuple[int, ...] = (),
        missed_sites: tuple[int, ...] = (), outcome: str | None = None,
    ) -> None:
        _set(self, "lsn", lsn)
        _set(self, "kind", kind)
        _set(self, "item", item)
        _set(self, "value", value)
        _set(self, "version", version)
        _set(self, "session", session)
        _set(self, "session_started_at", session_started_at)
        _set(self, "txn_id", txn_id)
        _set(self, "txn_seq", txn_seq)
        _set(self, "coordinator", coordinator)
        _set(self, "participants", participants)
        _set(self, "applied_sites", applied_sites)
        _set(self, "missed_sites", missed_sites)
        _set(self, "outcome", outcome)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return list(_fields(self))

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self) -> int:
        return hash(_fields(self))

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, _fields(self))
        return f"LogRecord({', '.join(f'{name}={value!r}' for name, value in pairs)})"


_set = object.__setattr__  # past LogRecord.__setattr__: construction, unpickling
_fields = operator.attrgetter(*LogRecord.__slots__)  # every field, in order
