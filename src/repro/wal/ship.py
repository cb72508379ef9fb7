"""Log-shipping catch-up protocol payloads (``wal.ship`` RPC).

A recovering site anchors its request at the highest commit sequence
number it could reconstruct durably (``after_commit``) and pages through
the serving peer's retained log with an LSN cursor. The peer filters the
suffix to write records of items the requester hosts, whose commit
sequence the requester has not seen, and tags each with whether the
record's version is the peer's *current* version of the item — only
current records may clear the requester's unreadable mark (an
intermediate version is still stale data and must stay unreadable).

A peer that truncated its log streams the suffix it still holds. The
stream may miss updates the truncation dropped; that is safe, because
the requester clears a mark only for a shipped *current* record or a
version the final page's ``versions`` map vouches for, and hands every
item still marked to per-item copy.

This transport is also how the ``async_quorum`` commit mode covers its
lagging copies: a drained site that missed its asynchronous apply (it
crashed, or lost the commit ack) recovers the committed write from a
peer's log exactly as it recovers any other missed update. The stream
carries only ``"write"`` records — ``"prepare"``/``"resolve"`` records
are a site-local matter (in-doubt re-arming) and are filtered out by the
serving side along with session records.
"""

from __future__ import annotations

import dataclasses

from repro.storage.copies import Version

_HEADER_BYTES = 24  # request/reply framing, same model as txn.payloads


@dataclasses.dataclass(frozen=True, slots=True)
class ShipRequest:
    """One page request of the missed-update stream."""

    requester: int
    after_commit: int  # ship only write records with version.commit above this
    cursor_lsn: int  # resume the peer-log scan after this LSN
    batch: int  # max records per reply

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES + 8 * 4


@dataclasses.dataclass(frozen=True, slots=True)
class ShipRecord:
    """One shipped committed write. ``current`` means the serving peer's
    copy still carries exactly this version (safe to install + clear)."""

    item: str
    value: object
    version: Version
    current: bool

    @property
    def wire_size(self) -> int:
        return len(self.item) + 8 + 16 + 1


@dataclasses.dataclass(frozen=True, slots=True)
class ShipReply:
    """One page of the stream.

    ``versions`` is only populated on the final page (``done=True``): the
    peer's current version of every requester-hosted item it can vouch
    for (readable copy), letting the requester validate-clear untouched
    items in one local transaction instead of one remote read each.
    """

    serving: bool  # False: peer not operational / no WAL — try another
    records: tuple[ShipRecord, ...] = ()
    next_cursor: int = 0
    done: bool = False
    versions: dict[str, Version] | None = None

    @property
    def wire_size(self) -> int:
        size = _HEADER_BYTES + sum(record.wire_size for record in self.records)
        if self.versions:
            size += sum(len(item) + 16 for item in self.versions)
        return size
