"""Transaction records and the §3 transaction taxonomy."""

from __future__ import annotations

import dataclasses
import enum
import itertools
import typing

_txn_counter = itertools.count(1)


_commit_counter = itertools.count(1)


def next_commit_seq() -> int:
    """The next global commit sequence number (see ``Version.commit``)."""
    return next(_commit_counter)


def reset_txn_counter() -> None:
    """Restart global transaction/commit numbering (new system instance).

    Sequence numbers only need to be unique within one simulated system;
    resetting at system construction makes runs reproducible regardless
    of what ran earlier in the process. Never call this while a system
    is live.
    """
    global _txn_counter, _commit_counter
    _txn_counter = itertools.count(1)
    _commit_counter = itertools.count(1)


class TxnKind(enum.Enum):
    """The three transaction classes of the paper.

    * ``USER`` — ordinary application transactions (§3.2). Processed only
      at operational sites.
    * ``CONTROL`` — update nominal session numbers (§3.3). May be
      processed at recovering sites as well.
    * ``COPIER`` — refresh one unreadable copy from a readable peer
      (§3.2). Treated specially by the §4 READ-FROM semantics.
    """

    USER = "user"
    CONTROL = "control"
    COPIER = "copier"


_KIND_PREFIX = {TxnKind.USER: "T", TxnKind.CONTROL: "C", TxnKind.COPIER: "P"}
_PREFIX_KIND = {prefix: kind.value for kind, prefix in _KIND_PREFIX.items()}


def kind_of(txn_id: str) -> str:
    """The kind a transaction id's prefix names (see ``Transaction.txn_id``):
    all a participation restored from the log, which records no kind,
    knows of it. An id of no known prefix is a user transaction's."""
    return _PREFIX_KIND.get(txn_id[:1], TxnKind.USER.value)


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


_ACTIVE = TxnStatus.ACTIVE  # a global load, not a class lookup, per is_finished


@dataclasses.dataclass
class Transaction:
    """A transaction instance, created at its home site's TM.

    ``seq`` is globally unique and doubles as the version tie-break for
    committed writes; ``txn_id`` is the human-readable name used in locks,
    messages, and histories (derived once: ``kind``, ``seq`` and
    ``home_site`` never change after construction).
    """

    home_site: int
    kind: TxnKind = TxnKind.USER
    seq: int = dataclasses.field(default_factory=lambda: next(_txn_counter))
    status: TxnStatus = TxnStatus.ACTIVE
    #: Multiversion snapshot-read transaction (``beginRO``): takes no
    #: locks, runs no 2PC, and never participates in deadlocks.
    read_only: bool = False
    start_time: float = 0.0
    end_time: float | None = None
    abort_reason: str | None = None
    # Populated as the transaction executes.
    view: dict[int, int] = dataclasses.field(default_factory=dict)
    touched_sites: set[int] = dataclasses.field(default_factory=set)
    wrote_sites: set[int] = dataclasses.field(default_factory=set)
    #: Logical items this transaction wrote (input to the quorum rule).
    written_items: set[str] = dataclasses.field(default_factory=set)
    #: Sites whose DM holds a prepared participation for this txn. Under
    #: ``async_quorum`` every write ack doubles as a prepare ack
    #: (pipelined 2PC), so this fills during the write-all round.
    prepared_sites: set[int] = dataclasses.field(default_factory=set)
    #: Commit mode this transaction was decided under ("sync_2pc" /
    #: "async_quorum"); None until the commit point. Auditors key the
    #: quorum checks off this.
    commit_mode: str | None = None
    #: The majority threshold the async decision was gated on (0 for
    #: sync commits); recorded for the ``quorum.majority`` audit check.
    quorum_needed: int = 0
    #: Root observability span (repro.obs.spans.Span) when tracing is on.
    span: typing.Any = dataclasses.field(default=None, repr=False)
    #: ``T<seq>@<home>`` / ``C…`` / ``P…`` by kind; read on every RPC, lock
    #: and recorder call, so it is built once here rather than per access.
    txn_id: str = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.txn_id = f"{_KIND_PREFIX[self.kind]}{self.seq}@{self.home_site}"

    @property
    def span_id(self) -> int | None:
        """This transaction's root span id, for RPC attribution."""
        return self.span.span_id if self.span is not None else None

    @property
    def is_finished(self) -> bool:
        return self.status is not _ACTIVE

    def __repr__(self) -> str:
        return f"<{self.txn_id} {self.kind.value} {self.status.value}>"
