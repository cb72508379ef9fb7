"""The simulated network fabric.

Crash-stop semantics: a message addressed to a site that is down at
*delivery* time is dropped silently; a site that is down cannot send.
Senders learn about failures only via timeouts (see :mod:`repro.net.rpc`)
or the failure detector (:mod:`repro.site.detector`), never via magic.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.errors import NetworkError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.messages import Message
from repro.sim.kernel import Kernel

#: Fixed per-message envelope size (headers, ids) used by the byte
#: accounting; payloads add their own ``wire_size`` when they define one.
ENVELOPE_BYTES = 64


@dataclasses.dataclass
class NetworkStats:
    """Counters used by the overhead experiments (E3, E7).

    Remote and intra-site traffic are accounted separately so that the
    conservation law ``sent == delivered + sum(dropped_*)`` holds exactly
    for the remote counters (intra-site "messages" are procedure calls
    and never cross the network): ``delivered`` counts remote deliveries
    only, ``local_delivered``/``dropped_local_down`` partition
    ``local_sent`` the same way. Byte totals weight each message by its
    payload's ``wire_size`` (see :mod:`repro.txn.payloads`) plus a fixed
    64-byte envelope.
    """

    sent: int = 0
    local_sent: int = 0
    delivered: int = 0
    local_delivered: int = 0
    dropped_dst_down: int = 0
    dropped_src_down: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_local_down: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    by_kind: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    delivered_by_kind: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )

    @property
    def dropped(self) -> int:
        """All remote drops combined (``sent - delivered`` when quiesced)."""
        return (
            self.dropped_dst_down
            + self.dropped_src_down
            + self.dropped_loss
            + self.dropped_partition
        )

    def snapshot(self) -> dict:
        """A plain-dict copy, for metric reports."""
        return {
            "sent": self.sent,
            "local_sent": self.local_sent,
            "delivered": self.delivered,
            "local_delivered": self.local_delivered,
            "dropped_dst_down": self.dropped_dst_down,
            "dropped_src_down": self.dropped_src_down,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
            "dropped_local_down": self.dropped_local_down,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "by_kind": dict(self.by_kind),
            "delivered_by_kind": dict(self.delivered_by_kind),
        }


class Endpoint:
    """A site's attachment point: an inbox, an up/down flag, and at most
    one parked receiver, which a delivery wakes in an event of its own."""

    __slots__ = ("kernel", "site_id", "inbox", "receiving", "_receiver")

    def __init__(self, kernel: Kernel, site_id: int) -> None:
        self.kernel = kernel
        self.site_id = site_id
        self.inbox: collections.deque[Message] = collections.deque()
        self.receiving = True
        self._receiver: tuple[typing.Callable[..., None], tuple] | None = None

    def put(self, msg: Message) -> None:
        """Hand ``msg`` to the parked receiver, else queue it."""
        receiver = self._receiver
        if receiver is None:
            self.inbox.append(msg)
        else:
            self._receiver = None
            fn, args = receiver
            self.kernel.schedule_callback(0.0, fn, *args, msg)

    def receive(self, fn: typing.Callable[..., None], *args: object) -> None:
        """Take the next message, once: ``fn(*args, msg)`` runs in a
        kernel event of its own — scheduled now if one is queued, else
        by the delivery that brings it. :meth:`go_down` forgets it."""
        if self.inbox:
            self.kernel.schedule_callback(0.0, fn, *args, self.inbox.popleft())
        else:
            self._receiver = (fn, args)

    def go_down(self) -> None:
        """Stop receiving and drop everything queued (volatile state)."""
        self.receiving = False
        self.inbox.clear()
        self._receiver = None

    def go_up(self) -> None:
        """Resume receiving messages."""
        self.receiving = True


class Network:
    """Point-to-point message delivery between attached endpoints.

    Parameters
    ----------
    kernel:
        Simulation kernel providing the clock and event loop.
    latency:
        One-way delay model, sampled per message.
    loss_probability:
        Probability that an individual message is lost in transit even
        between live sites (default 0: the paper assumes reliable links).
    """

    def __init__(
        self,
        kernel: Kernel,
        latency: LatencyModel | None = None,
        loss_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"loss_probability out of range: {loss_probability}")
        self.kernel = kernel
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self.loss_probability = loss_probability
        self.stats = NetworkStats()
        self._endpoints: dict[int, Endpoint] = {}
        self._rng = kernel.rng.stream("net")
        self._partition: dict[int, int] | None = None  # site -> group index

    def attach(self, site_id: int) -> Endpoint:
        """Create (or return) the endpoint for ``site_id``."""
        endpoint = self._endpoints.get(site_id)
        if endpoint is None:
            endpoint = Endpoint(self.kernel, site_id)
            self._endpoints[site_id] = endpoint
        return endpoint

    def endpoint(self, site_id: int) -> Endpoint:
        """Return the endpoint for ``site_id``; it must be attached."""
        try:
            return self._endpoints[site_id]
        except KeyError:
            raise NetworkError(f"site {site_id} is not attached") from None

    def set_partition(self, groups: typing.Sequence[typing.Collection[int]]) -> None:
        """Split the network: messages between groups are dropped.

        The paper's algorithm explicitly does NOT handle partitions
        (§1); this switch exists to *demonstrate* that boundary (the
        algorithm stays safe but cross-partition operations block).
        Sites not listed in any group form an implicit final group
        together.
        """
        mapping: dict[int, int] = {}
        for index, group in enumerate(groups):
            for site_id in group:
                if site_id in mapping:
                    raise NetworkError(f"site {site_id} in two partition groups")
                mapping[site_id] = index
        for site_id in self._endpoints:
            mapping.setdefault(site_id, len(groups))
        self._partition = mapping

    def heal_partition(self) -> None:
        """Restore full connectivity."""
        self._partition = None

    def _partitioned(self, src: int, dst: int) -> bool:
        if self._partition is None:
            return False
        return self._partition.get(src) != self._partition.get(dst)

    def send(self, msg: Message) -> None:
        """Send ``msg``; delivery (or drop) happens after a sampled latency."""
        kernel = self.kernel
        # Happens-before message edge: a race detector stamps the
        # sender's vector clock by msg_id, joined (``join`` probe) when
        # the rpc layer picks the message up.
        if kernel.probes.send:
            for fn in kernel.probes.send:
                fn(msg.msg_id)
        try:
            dst = self._endpoints[msg.dst]
            src = self._endpoints[msg.src]
        except KeyError as missing:
            raise NetworkError(f"site {missing.args[0]} is not attached") from None
        stats = self.stats
        if src is dst:
            # Intra-site "messages" (a TM talking to its co-located DM) are
            # procedure calls: instantaneous, lossless, and not network
            # traffic for the message-count metrics (E3/E7).
            stats.local_sent += 1
            if src.receiving:
                kernel.schedule_callback(0.0, self._deliver_local, dst, msg)
            else:
                stats.dropped_local_down += 1
            return
        size = ENVELOPE_BYTES + getattr(msg.payload, "wire_size", 0)
        stats.sent += 1
        stats.by_kind[msg.kind] += 1
        stats.bytes_sent += size
        if not src.receiving:
            # A down site cannot transmit; this only happens in narrow
            # crash windows where a process is being torn down.
            stats.dropped_src_down += 1
            return
        if self.loss_probability and self._rng.random() < self.loss_probability:
            stats.dropped_loss += 1
            return
        kernel.schedule_callback(
            self.latency.sample(self._rng), self._deliver, dst, msg, size
        )

    def _deliver_local(self, dst: Endpoint, msg: Message) -> None:
        if dst.receiving:
            self.stats.local_delivered += 1
            dst.put(msg)
        else:
            self.stats.dropped_local_down += 1

    def _deliver(self, dst: Endpoint, msg: Message, size: int) -> None:
        if self._partition is not None and self._partitioned(msg.src, msg.dst):
            self.stats.dropped_partition += 1
            return
        if dst.receiving:
            stats = self.stats
            stats.delivered += 1
            stats.delivered_by_kind[msg.kind] += 1
            stats.bytes_delivered += size
            dst.put(msg)
        else:
            self.stats.dropped_dst_down += 1
