"""Typed payloads of the TM↔DM protocol messages.

The two built on every operation, :class:`ReadRequest` and
:class:`WriteRequest`, are immutable ``typing.NamedTuple``s — a frozen
dataclass pays one ``object.__setattr__`` per field in ``__init__``; the
rest are frozen slots dataclasses.

Each payload exposes a ``wire_size`` property — a coarse serialized-size
model (identifier strings at one byte per character, numbers and flags at
8 bytes each) used by the network layer's byte accounting
(:class:`~repro.net.network.NetworkStats`). The absolute numbers are
nominal; what matters for the E3/E7 overhead experiments is that batched
requests weigh proportionally to their item count.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.storage.copies import Version

#: Fixed cost of txn_id + seq + kind + flags in the size model.
_HEADER_BYTES = 24


class ReadRequest(typing.NamedTuple):
    """Read one physical copy (§3.2).

    ``expected`` is the session number the requester believes the target
    site is in (``ns_i[k]``); ``None`` disables the check (used by
    baselines that predate session numbers, and for a TM's reads at its
    own site where TM and DM share ``as[k]``). ``privileged`` marks
    control-transaction operations, which recovering sites must accept
    (§3.3).
    """

    txn_id: str
    txn_seq: int
    kind: str
    item: str
    expected: int | None = None
    privileged: bool = False
    peek_unreadable: bool = False
    """Copier bookkeeping read: may observe an unreadable copy's version
    (for the §5 version-number optimisation) and is not recorded in the
    history — it reads metadata, not the database."""

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES + len(self.item)


@dataclasses.dataclass(frozen=True, slots=True)
class BatchReadRequest:
    """Read several physical copies at one site in a single request.

    Semantically identical to issuing one :class:`ReadRequest` per item
    in order — the DM has one read pipeline, of which a single read is
    the one-item case, so scheduling decisions, session check and
    history records agree under every scheduler — but it costs one RPC
    round trip and one serving process instead of ``len(items)`` of
    each. Used by the ROWAA implicit begin to materialise the whole
    nominal session vector ``NS[*]`` once per transaction (§3.2 makes
    these local reads, so batching them keeps the paper's "negligible
    overhead" claim true even at scale).
    """

    txn_id: str
    txn_seq: int
    kind: str
    items: tuple[str, ...]
    expected: int | None = None
    privileged: bool = False

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES + sum(len(item) for item in self.items)


@dataclasses.dataclass(frozen=True, slots=True)
class SnapshotReadRequest:
    """Read several items at one committed snapshot cut (``beginRO``).

    Served by the multiversion store entirely outside the lock manager
    and 2PC: the whole batch resolves synchronously against the pinned
    cut ``(cut_ts, cut_commit)``, so the reads are a consistent
    committed prefix by construction. No session check — snapshot reads
    are valid at recovering sites precisely *because* they read below
    the cut the site provably holds.
    """

    txn_id: str
    txn_seq: int
    items: tuple[str, ...]
    cut_ts: float
    cut_commit: int

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES + sum(len(item) for item in self.items) + 16


class WriteRequest(typing.NamedTuple):
    """Buffer a write intent for one physical copy.

    ``version_override`` carries the source version for copier-style
    writes (copiers and the renovation writes of type-1 control
    transactions), preserving original-writer provenance (§4).
    """

    txn_id: str
    txn_seq: int
    kind: str
    item: str
    value: object
    expected: int | None = None
    privileged: bool = False
    version_override: Version | None = None
    applied_sites: tuple[int, ...] = ()
    """All sites this logical write is being sent to (their copies become
    current at commit); used by the §5 stale-tracking refinements."""
    missed_sites: tuple[int, ...] = ()
    """Resident sites the writer skipped because they were nominally down;
    their copies miss this update (fail-locks / missing-list entries)."""
    prepare: bool = False
    """Pipelined 2PC (``async_quorum``): the write ack doubles as a
    prepare vote — the DM durably journals the intent (WAL prepare
    record, group-committed on a kernel microtask) and marks its
    participation prepared, so commit needs no separate prepare round.
    ``applied_sites`` then also names the participant set for
    cooperative termination."""

    @property
    def wire_size(self) -> int:
        return (
            _HEADER_BYTES
            + len(self.item)
            + 8  # the value, modeled as one word
            + 8 * (len(self.applied_sites) + len(self.missed_sites))
            + (16 if self.version_override is not None else 0)
            + (1 if self.prepare else 0)
        )


@dataclasses.dataclass(frozen=True, slots=True)
class PrepareRequest:
    """2PC phase one. ``participants`` enables cooperative termination."""

    txn_id: str
    participants: tuple[int, ...]

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES + 8 * len(self.participants)


@dataclasses.dataclass(frozen=True, slots=True)
class CommitRequest:
    """2PC decision: apply buffered writes with ``version``."""

    txn_id: str
    version: Version

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES + 16


@dataclasses.dataclass(frozen=True, slots=True)
class MarkMissedRequest:
    """Coordinator's staleness correction after commit-ack loss
    (``dm.mark_missed``).

    When a write site never acks the COMMIT (it crashed in the window
    between its yes-vote and the apply), the sites that *did* apply
    believe the write landed everywhere — their write-time
    ``applied_sites`` included the now-crashed site. Only the
    coordinator observes the loss, so it fans these ``(item, site)``
    pairs to the acked sites; their stale trackers record the miss and
    the crashed site's recovery marks the copy unreadable.
    """

    txn_id: str
    pairs: tuple[tuple[str, int], ...]

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES + sum(len(item) + 8 for item, _site in self.pairs)


@dataclasses.dataclass(frozen=True, slots=True)
class FinishRequest:
    """Abort or release: drop buffered writes, release all locks."""

    txn_id: str

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES


@dataclasses.dataclass(frozen=True, slots=True)
class OutcomeQuery:
    """Ask a TM or DM what it knows about a transaction's fate."""

    txn_id: str

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES
