"""Message envelope carried by the simulated network."""

from __future__ import annotations

import dataclasses
import itertools

_msg_counter = itertools.count(1)


def reset_msg_counter() -> None:
    """Restart global message numbering (see ``reset_txn_counter``)."""
    global _msg_counter
    _msg_counter = itertools.count(1)


class Message:
    """A network message, immutable by contract.

    One is built per send (37 k per ``steady_rw`` benchmark rep), so this
    is a plain ``__slots__`` class: a frozen dataclass pays one
    ``object.__setattr__`` call per field at construction. Nothing
    enforces immutability — no code assigns to a message after
    construction, and none may: the object sent is the object delivered,
    so sender and receiver share it.

    Attributes
    ----------
    src, dst:
        Site ids of sender and receiver.
    kind:
        Application-level message type (e.g. ``"read"``, ``"prepare"``).
    payload:
        Arbitrary application data. Treated as opaque by the network.
    msg_id:
        Unique id assigned at construction; used for RPC correlation.
    reply_to:
        For replies, the ``msg_id`` of the request being answered.
    span_id:
        Observability context: the caller's span id, so the serving site
        can attribute its work to the originating transaction
        (:mod:`repro.obs.spans`). ``None`` when tracing is off.
    """

    __slots__ = ("src", "dst", "kind", "payload", "msg_id", "reply_to", "span_id")

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: object = None,
        reply_to: int | None = None,
        span_id: int | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.msg_id: int = next(_msg_counter)
        self.reply_to = reply_to
        self.span_id = span_id

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, msg_id={self.msg_id!r}, "
            f"reply_to={self.reply_to!r}, span_id={self.span_id!r})"
        )


#: Per-sub-call framing cost inside a batch envelope (msg_id + kind tag
#: + ok flag), deliberately smaller than a full Message envelope — the
#: whole point of coalescing.
_BATCH_ITEM_BYTES = 9


@dataclasses.dataclass(frozen=True, slots=True)
class BatchCalls:
    """Several coalesced requests to one destination (``rpc.batch``).

    Each entry is ``(msg_id, kind, payload, span_id)`` of a request that
    would otherwise have been its own message; the receiver serves each
    in its own kernel event (identical semantics to unbatched delivery)
    and answers all of them with one :class:`BatchResults` envelope.
    """

    calls: tuple[tuple[int, str, object, int | None], ...]

    @property
    def wire_size(self) -> int:
        return sum(
            _BATCH_ITEM_BYTES + getattr(payload, "wire_size", 0)
            for _msg_id, _kind, payload, _span in self.calls
        )


@dataclasses.dataclass(frozen=True, slots=True)
class BatchResults:
    """The batched replies: ``(reply_to_msg_id, ok, value)`` per call."""

    results: tuple[tuple[int, bool, object], ...]

    @property
    def wire_size(self) -> int:
        return sum(
            _BATCH_ITEM_BYTES + getattr(value, "wire_size", 0)
            for _msg_id, _ok, value in self.results
        )
