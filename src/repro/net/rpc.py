"""Request/reply messaging on top of :class:`~repro.net.network.Network`.

Each site runs one :class:`RpcNode`. Incoming requests are dispatched to
registered handlers, each served by its own simulated process so that a
handler blocked on a lock does not stall the site. Handler exceptions
derived from :class:`~repro.errors.ReproError` propagate to the caller
as-is (this is how :class:`~repro.errors.SessionMismatch` reaches the
requesting TM, per §3.1 of the paper); any other exception is a bug and is
wrapped in :class:`RemoteError`.

Call futures are created *defused*: when a caller dies in a site crash,
the late reply or timeout that would have woken it must not be reported as
an unhandled failure.

2PC batching: calls whose kind is in :data:`BATCH_KINDS` bound for a
*remote* destination are not sent immediately — they are queued per
destination and flushed on a kernel microtask (zero simulated delay), so
every prepare/commit/abort issued within one timestep to the same site
coalesces into a single ``rpc.batch`` envelope, answered by a single
``rpc.batch.reply``. This is also how decisions piggyback: a
``dm.commit``/``dm.abort`` for a decided transaction rides the same
envelope as whatever other 2PC traffic the timestep produced for that
site. Single-call batches degenerate to the plain message, so the wire
protocol only changes when there is something to coalesce.
"""

from __future__ import annotations

import functools
import inspect
import typing

from repro.errors import Interrupt, NetworkError, ReproError, RpcTimeout
from repro.net.messages import BatchCalls, BatchResults, Message
from repro.net.network import Endpoint, Network
from repro.sim.events import Future
from repro.sim.kernel import Callback, Kernel
from repro.sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability

Handler = typing.Callable[[object, int], object]

#: Call kinds eligible for per-destination coalescing: the 2PC fan-out
#: rounds, which are the protocol's high-multiplicity traffic. Reads and
#: writes stay unbatched — their latency is the client's critical path
#: and their handlers may block on locks for long stretches.
BATCH_KINDS: frozenset[str] = frozenset({"dm.prepare", "dm.commit", "dm.abort"})

#: Decision kinds counted as piggybacked when they share an envelope.
_DECISION_KINDS = ("dm.commit", "dm.abort")


class RemoteError(NetworkError):
    """A handler raised an exception that is not part of the protocol."""

    __slots__ = ("site_id", "kind", "original")

    def __init__(self, site_id: int, kind: str, original: BaseException) -> None:
        super().__init__(f"handler {kind!r} at site {site_id} crashed: {original!r}")
        self.site_id = site_id
        self.kind = kind
        self.original = original


class RpcNode:
    """Per-site RPC endpoint: handler registry, dispatcher, caller API."""

    __slots__ = (
        "kernel",
        "network",
        "site_id",
        "obs",
        "endpoint",
        "stats_batches",
        "stats_batched_calls",
        "stats_decisions_piggybacked",
        "_handlers",
        "_pending",
        "_dispatcher",
        "_servers",
        "_outbatch",
    )

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        site_id: int,
        obs: "Observability | None" = None,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.site_id = site_id
        self.obs = obs
        self.endpoint: Endpoint = network.attach(site_id)
        self.stats_batches = 0  # envelopes sent with >= 2 calls
        self.stats_batched_calls = 0  # calls that rode those envelopes
        self.stats_decisions_piggybacked = 0  # commit/abort among them
        self._handlers: dict[str, Handler] = {}
        #: msg_id -> (reply future, expiry timer or None). The timer is a
        #: lazily-cancelled kernel callback: when the reply wins the race
        #: (the overwhelmingly common case) it is cancelled in O(1) and
        #: skipped when its heap entry surfaces, instead of firing into a
        #: dead ``_pending`` entry.
        self._pending: dict[int, tuple[Future, Callback | None]] = {}
        self._dispatcher: Process | None = None
        # Insertion-ordered dict-as-set: a plain set would interrupt the
        # servers in id-hash order on stop(), which varies across
        # interpreter runs (REP002).
        self._servers: dict[Process, None] = {}
        #: Per-destination outgoing batch, flushed on a kernel microtask.
        self._outbatch: dict[int, list[Message]] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the dispatcher process is alive."""
        return self._dispatcher is not None and self._dispatcher.is_alive

    def start(self) -> None:
        """Begin receiving: mark the endpoint up and start dispatching."""
        if self.running:
            return
        self.endpoint.go_up()
        self._dispatcher = self.kernel.process(
            self._dispatch(), name=f"rpc-dispatch[{self.site_id}]"
        )
        self._dispatcher.defuse()  # dies by Interrupt on stop(); that's expected

    def stop(self) -> None:
        """Crash-stop: kill dispatcher and servers, drop inbox and pending."""
        self.endpoint.go_down()
        if self._dispatcher is not None and self._dispatcher.is_alive:
            self._dispatcher.interrupt("stop")
        self._dispatcher = None
        for server in list(self._servers):
            if server.is_alive:
                server.interrupt("stop")
        self._servers.clear()
        for _future, timer in self._pending.values():
            if timer is not None:
                timer.cancel()
        self._pending.clear()
        self._outbatch.clear()

    # -- handler registry ------------------------------------------------------

    def register(self, kind: str, handler: Handler) -> None:
        """Route requests of ``kind`` to ``handler(payload, src_site)``.

        The handler may return a plain value, or a generator which is then
        driven as part of the serving process (it may block on locks,
        timeouts, nested RPCs, ...).
        """
        if kind in self._handlers:
            raise NetworkError(f"duplicate handler for {kind!r} at site {self.site_id}")
        self._handlers[kind] = handler

    # -- caller API ------------------------------------------------------------

    def call(
        self,
        dst: int,
        kind: str,
        payload: object = None,
        timeout: float | None = None,
        span_parent: int | None = None,
    ) -> Future:
        """Send a request; the returned future yields the reply value.

        Fails with the remote :class:`~repro.errors.ReproError`, with
        :class:`RemoteError` for handler bugs, or with
        :class:`~repro.errors.RpcTimeout` if no reply arrives in time.

        ``span_parent`` attributes the call (and the remote work it
        triggers) to a caller span when tracing is on; the span id rides
        the message envelope so the serving site can parent its work
        under it.
        """
        span_id = None
        obs = self.obs
        if obs is not None and obs.spans_on:
            recorder = obs.spans
            span = recorder.start(f"rpc:{kind}", "rpc", self.site_id, parent=span_parent)
            span_id = span.span_id
            msg = Message(
                src=self.site_id, dst=dst, kind=kind, payload=payload, span_id=span_id
            )
            future = Future(self.kernel, name=f"rpc:{kind}->{dst}").defuse()
            future.add_callback(
                lambda ev: recorder.finish(span, dst=dst, ok=ev.ok)
            )
        else:
            msg = Message(src=self.site_id, dst=dst, kind=kind, payload=payload)
            future = Future(self.kernel, name=f"rpc:{kind}->{dst}").defuse()
        timer = (
            self.kernel.schedule_callback(timeout, self._expire, msg.msg_id, dst, kind)
            if timeout is not None
            else None
        )
        self._pending[msg.msg_id] = (future, timer)
        self._send_or_batch(msg)
        return future

    def call_many(
        self,
        dsts: typing.Iterable[int],
        kind: str,
        payload: object = None,
        timeout: float | None = None,
        span_parent: int | None = None,
    ) -> list[tuple[int, Future]]:
        """Issue the same request to several sites; returns (dst, future) pairs."""
        return [
            (dst, self.call(dst, kind, payload, timeout, span_parent=span_parent))
            for dst in dsts
        ]

    def _expire(self, msg_id: int, dst: int, kind: str) -> None:
        entry = self._pending.pop(msg_id, None)
        if entry is not None and not entry[0].triggered:
            entry[0].fail(RpcTimeout(dst, kind))

    # -- outgoing batcher ------------------------------------------------------

    def _send_now(self, msg: Message) -> None:
        """Immediate send that preserves per-destination FIFO: anything
        already parked in the batch for this destination departs first.
        Without this, a parked ``dm.commit`` could be overtaken by a
        later same-timestep read/write/reply to the same site — an
        ordering the unbatched protocol never produced."""
        if self._outbatch.get(msg.dst):
            self._flush_batch(msg.dst)
        self.network.send(msg)

    def _send_or_batch(self, msg: Message) -> None:
        """Send now, or park in the per-destination batch.

        Only remote 2PC traffic is coalesced: local sends are already
        zero-latency same-timestep deliveries, so batching them would
        only add framing.
        """
        if msg.kind not in BATCH_KINDS or msg.dst == self.site_id:
            self._send_now(msg)
            return
        queue = self._outbatch.setdefault(msg.dst, [])
        queue.append(msg)
        if len(queue) == 1:
            # First call this timestep for this destination: arm the
            # flush microtask. Everything queued before it runs — all
            # same-timestep calls — rides the same envelope.
            self.kernel.call_soon(self._flush_batch, msg.dst)

    def _flush_batch(self, dst: int) -> None:
        msgs = self._outbatch.pop(dst, None)
        if not msgs:
            return  # crashed (stop() cleared the batch) before the flush
        if len(msgs) == 1:
            self.network.send(msgs[0])
            return
        self.stats_batches += 1
        self.stats_batched_calls += len(msgs)
        self.stats_decisions_piggybacked += sum(
            1 for m in msgs if m.kind in _DECISION_KINDS
        )
        self.network.send(
            Message(
                src=self.site_id,
                dst=dst,
                kind="rpc.batch",
                payload=BatchCalls(
                    tuple((m.msg_id, m.kind, m.payload, m.span_id) for m in msgs)
                ),
            )
        )

    # -- server side -----------------------------------------------------------

    def _dispatch(self) -> typing.Generator:
        # Greedy drain: one wakeup handles every message already in the
        # inbox. Beyond saving a kernel event per message, this is what
        # lets outgoing batches form — all same-timestep replies complete
        # their callers before any caller's follow-up flush fires, so the
        # follow-up calls coalesce.
        inbox = self.endpoint.inbox
        join = self.kernel.probes.join
        while True:
            msg = yield inbox.get()
            while True:
                # Happens-before message edge, joined per message even
                # though the wake-up event may predate it: the greedy
                # drain handles messages whose sender clocks the
                # dispatch's scheduling edge did not carry.
                for fn in join:
                    fn(msg.msg_id)
                if msg.is_reply():
                    self._complete_call(msg)
                elif msg.kind == "rpc.batch":
                    self._spawn_batch(msg)
                else:
                    self._spawn_server(
                        msg.kind, msg.payload, msg.src, msg.span_id,
                        functools.partial(self._reply, msg),
                    )
                if not len(inbox):
                    break
                msg = inbox.get_nowait()

    def _complete_call(self, msg: Message) -> None:
        if msg.kind == "rpc.batch.reply":
            batch_results = msg.payload
            assert isinstance(batch_results, BatchResults)
            for msg_id, ok, value in batch_results.results:
                self._complete_one(msg_id, ok, value)
            return
        assert msg.reply_to is not None
        ok, value = msg.payload
        self._complete_one(msg.reply_to, ok, value)

    def _complete_one(self, msg_id: int, ok: bool, value: object) -> None:
        entry = self._pending.pop(msg_id, None)
        if entry is None:
            return  # late reply for a timed-out or pre-crash request
        future, timer = entry
        if timer is not None:
            timer.cancel()
        if future.triggered:
            return
        if ok:
            future.succeed(value)
        else:
            future.fail(value)

    def _spawn_server(
        self,
        kind: str,
        payload: object,
        src: int,
        span_id: int | None,
        deliver: typing.Callable[[bool, object], None],
    ) -> Process | None:
        """Serve one call in its own process; its outcome goes to
        ``deliver(ok, value)`` — a ``.reply`` message, or a batch's result
        slot. Returns None (outcome already delivered) without a handler."""
        handler = self._handlers.get(kind)
        if handler is None:
            deliver(False, NetworkError(f"no handler for {kind!r} at site {self.site_id}"))
            return None
        server = self.kernel.process(
            self._serve(handler, kind, payload, src, deliver),
            name=f"rpc-serve[{self.site_id}]:{kind}",
        )
        self._servers[server] = None
        server.defuse()
        server.add_callback(lambda _ev: self._servers.pop(server, None))
        # Serve-side span: opened here (not inside the handler) because
        # handlers may be generators whose bodies run later; the span is
        # closed when the serving process dies, whatever the outcome.
        obs = self.obs
        if obs is not None and obs.spans_on and span_id is not None:
            recorder = obs.spans
            span = recorder.start(f"serve:{kind}", "serve", self.site_id, parent=span_id)
            server.add_callback(lambda ev: recorder.finish(span, ok=ev.ok))
        return server

    def _serve(
        self,
        handler: Handler,
        kind: str,
        payload: object,
        src: int,
        deliver: typing.Callable[[bool, object], None],
    ) -> typing.Generator:
        try:
            result = handler(payload, src)
            if inspect.isgenerator(result):
                result = yield from result
        except Interrupt:
            raise  # site crash tearing this server down
        except ReproError as exc:
            deliver(False, exc)
            return
        except Exception as exc:  # noqa: BLE001 - handler bug, not protocol
            deliver(False, RemoteError(self.site_id, kind, exc))
            return
        deliver(True, result)

    def _spawn_batch(self, envelope: Message) -> None:
        """Unpack an ``rpc.batch``: serve every sub-call in its own process
        (identical semantics to unbatched delivery), answer all of them
        with one ``rpc.batch.reply`` once the last server finishes."""
        batch = envelope.payload
        assert isinstance(batch, BatchCalls)
        results: dict[int, tuple[bool, object]] = {}
        remaining = [len(batch.calls)]

        def record(msg_id: int, ok: bool, value: object) -> None:
            results[msg_id] = (ok, value)

        def finish_one(_ev: object = None) -> None:
            remaining[0] -= 1
            if remaining[0] == 0 and self.running:
                self._reply_batch(envelope, batch, results)

        for msg_id, kind, payload, span_id in batch.calls:
            server = self._spawn_server(
                kind, payload, envelope.src, span_id, functools.partial(record, msg_id)
            )
            if server is None:
                finish_one()
            else:
                # Last callback on the process: by then the server has
                # left ``_servers`` and its span is closed.
                server.add_callback(finish_one)

    def _reply_batch(
        self,
        envelope: Message,
        batch: BatchCalls,
        results: dict[int, tuple[bool, object]],
    ) -> None:
        packed = []
        for msg_id, kind, _payload, _span in batch.calls:
            ok, value = results.get(
                msg_id,
                (False, NetworkError(f"handler {kind!r} at site {self.site_id} died")),
            )
            packed.append((msg_id, ok, value))
        self._send_now(
            Message(
                src=self.site_id,
                dst=envelope.src,
                kind="rpc.batch.reply",
                payload=BatchResults(tuple(packed)),
                reply_to=envelope.msg_id,
            )
        )

    def _reply(self, request: Message, ok: bool, value: object) -> None:
        self._send_now(
            Message(
                src=self.site_id,
                dst=request.src,
                kind=f"{request.kind}.reply",
                payload=(ok, value),
                reply_to=request.msg_id,
            )
        )
