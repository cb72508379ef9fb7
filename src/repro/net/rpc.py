"""Request/reply messaging on top of :class:`~repro.net.network.Network`.

Each site runs one :class:`RpcNode`, whose inbox is drained by a kernel
callback parked on its endpoint (:meth:`RpcNode._receive`). Incoming
requests are dispatched to registered handlers, each in its own kernel
event (so dispatch order, not call depth, decides who runs first): the
handler is called from a plain callback, and only one that returns a
generator gets a simulated process — which adopts the generator inside
that same event — so that a handler blocked on a lock does not stall the
site. Every serve ends in :meth:`RpcNode._served`. Handler exceptions
derived from :class:`~repro.errors.ReproError` propagate to the caller
as-is (this is how :class:`~repro.errors.SessionMismatch` reaches the
requesting TM, per §3.1 of the paper); any other exception is a bug and
is wrapped in :class:`RemoteError`.

Kernel events per served request: one (the start callback), plus one per
resume of a handler that returns a generator, plus — for a batch sub-call
only — one completion callback, which is where the ``rpc.batch.reply`` is
sent. A serve's own completion schedules and sends nothing, so it is not
an event. Receiving costs one event per inbox wake-up (messages queued
behind the one in hand ride along) and one per start; a stop costs none.

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
import typing
from types import GeneratorType

from repro.errors import Interrupt, NetworkError, ReproError, RpcTimeout
from repro.net.messages import BatchCalls, BatchResults, Message
from repro.net.network import Endpoint, Network
from repro.sim.deadlines import Deadline, DeadlineQueue
from repro.sim.events import Future
from repro.sim.kernel import Kernel
from repro.sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.spans import Span

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
    """Per-site RPC endpoint: handler registry, inbox drain, caller API."""

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
        "_deadlines",
        "_incarnation",
        "_servers",
        "_serve_seq",
        "_serve_names",
        "_reply_kinds",
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
        #: msg_id -> (reply future, its deadline or None). A reply that
        #: wins the race (the overwhelmingly common case) cancels the
        #: deadline in O(1).
        self._pending: dict[int, tuple[Future, Deadline | None]] = {}
        #: Call deadlines, one queue per timeout length: every caller of
        #: a kind passes the same one (``rpc_timeout``, the recovery
        #: probes' and the type-2 ping's), so each queue keeps a single
        #: kernel entry armed however many calls are in flight.
        self._deadlines: dict[float, DeadlineQueue] = {}
        #: The running incarnation of the inbox drain, an identity token
        #: its steps carry (a step of an earlier incarnation parks
        #: nothing); None while stopped.
        self._incarnation: object | None = None
        #: Serves in flight, in dispatch order (the order stop() tears
        #: them down in): serve number -> the process driving a handler's
        #: generator, or None while the serve is dispatched but not
        #: started (or is a plain handler running right now).
        self._servers: dict[int, Process | None] = {}
        self._serve_seq = 0
        # Per-kind strings built once, not per call: the serving-process
        # label and the reply's message kind.
        self._serve_names: dict[str, str] = {}
        self._reply_kinds: dict[str, str] = {}
        #: Per-destination outgoing batch, flushed on a kernel microtask.
        self._outbatch: dict[int, list[Message]] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        """True from :meth:`start` to :meth:`stop`."""
        return self._incarnation is not None

    def start(self) -> None:
        """Begin receiving: mark the endpoint up and start dispatching."""
        if self.running:
            return
        self.endpoint.go_up()
        incarnation = self._incarnation = object()
        self.kernel.schedule_callback(0.0, self._receive, incarnation, None)

    def stop(self) -> None:
        """Crash-stop: drop inbox, drain, servers and pending calls."""
        self.endpoint.go_down()
        self._incarnation = None
        servers, self._servers = self._servers, {}
        for number, server in servers.items():
            if server is None:
                # Dispatched, not started: its first step still runs at
                # its heap position, after this; whatever process that
                # leaves behind is interrupted where a started server's
                # interrupt would be delivered.
                self._servers[number] = None
                self.kernel.schedule_callback(0.0, self._stop_late_starter, number)
            elif server.is_alive:
                server.interrupt("stop")
        for queue in self._deadlines.values():
            queue.clear()
        self._pending.clear()
        self._outbatch.clear()

    # -- handler registry ------------------------------------------------------

    def register(self, kind: str, handler: Handler) -> None:
        """Route requests of ``kind`` to ``handler(payload, src_site)``.

        The handler may return a plain value, or a generator which is then
        driven by a serving process (it may block on locks, timeouts,
        nested RPCs, ...). Which one is decided per call from what the
        handler returned, never at registration.
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
        """Send a request; the returned future resolves to the reply value.

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
            msg = Message(self.site_id, dst, kind, payload, span_id=span_id)
            future = Future(self.kernel, name=("rpc:%s->%s", kind, dst)).defuse()
            future.add_callback(
                lambda ev: recorder.finish(span, dst=dst, ok=ev.ok)
            )
        else:
            msg = Message(self.site_id, dst, kind, payload)
            future = Future(self.kernel, name=("rpc:%s->%s", kind, dst)).defuse()
        if timeout is None:
            deadline = None
        else:
            queue = self._deadlines.get(timeout)
            if queue is None:
                queue = self._deadlines[timeout] = DeadlineQueue(
                    self.kernel, timeout, self._timed_out
                )
            deadline = queue.add(msg.msg_id, dst, kind)
        self._pending[msg.msg_id] = (future, deadline)
        # Only remote 2PC traffic is coalesced: local sends are already
        # zero-latency same-timestep deliveries, so batching them would
        # only add framing.
        if kind in BATCH_KINDS and dst != self.site_id:
            self._batch(msg)
        else:
            self._send_now(msg)
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

    def _timed_out(self, msg_id: int, dst: int, kind: str) -> None:
        self._pending.pop(msg_id)[0].fail(RpcTimeout(dst, kind))

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

    def _batch(self, msg: Message) -> None:
        """Park ``msg`` in its destination's batch."""
        queue = self._outbatch.setdefault(msg.dst, [])
        queue.append(msg)
        if len(queue) == 1:
            # First call this timestep for this destination: arm the
            # flush microtask. Everything queued before it runs — all
            # same-timestep calls — rides the same envelope.
            self.kernel.schedule_callback(0.0, self._flush_batch, msg.dst)

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

    def _receive(self, incarnation: object, msg: Message | None) -> None:
        """One step of the inbox drain ``incarnation``: dispatch ``msg`` (in
        hand; None on a start) and every message queued behind it, then
        park on the endpoint again — unless the node stopped since this
        step was scheduled: the message in hand is still dispatched, as by
        the dispatcher process this replaced, but nothing is parked.

        Greedy drain: one wake-up handles every message already in the
        inbox. Beyond saving a kernel event per message, this is what
        lets outgoing batches form — all same-timestep replies complete
        their callers before any caller's follow-up flush fires, so the
        follow-up calls coalesce.
        """
        inbox = self.endpoint.inbox
        while msg is not None:
            if msg.reply_to is not None:
                self._complete_call(msg)
            elif msg.kind == "rpc.batch":
                self._spawn_batch(msg)
            else:
                self._spawn_server(
                    msg.kind, msg.payload, msg.src, msg.span_id,
                    functools.partial(self._reply, msg),
                )
            msg = inbox.popleft() if inbox else None
        if incarnation is self._incarnation:
            self.endpoint.receive(self._receive, incarnation)

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
        future, deadline = entry
        if deadline is not None:
            deadline.cancel()
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
        then: typing.Callable[[], None] | None = None,
    ) -> bool:
        """Dispatch one call to its handler, in its own kernel event; its
        outcome goes to ``deliver(ok, value)`` — a ``.reply`` message, or a
        batch's result slot — and ``then()`` (a batch's bookkeeping) runs
        one event after the serve ends. Returns False (outcome already
        delivered, ``then`` not scheduled) without a handler."""
        handler = self._handlers.get(kind)
        if handler is None:
            deliver(False, NetworkError(f"no handler for {kind!r} at site {self.site_id}"))
            return False
        # Serve-side span: opened at dispatch (not when the handler
        # runs) and closed when the serve ends, whatever the outcome.
        span = None
        obs = self.obs
        if obs is not None and obs.spans_on and span_id is not None:
            span = obs.spans.start(f"serve:{kind}", "serve", self.site_id, parent=span_id)
        self._serve_seq = number = self._serve_seq + 1
        self._servers[number] = None
        self.kernel.schedule_callback(
            0.0, self._start_server, handler, payload, src, number, kind, deliver, then, span
        )
        return True

    def _start_server(
        self,
        handler: Handler,
        payload: object,
        src: int,
        number: int,
        kind: str,
        deliver: typing.Callable[[bool, object], None],
        then: typing.Callable[[], None] | None,
        span: "Span | None",
    ) -> None:
        """The serve's event: call the handler. A plain result ends the
        serve at once; a generator is adopted by a process in place (so
        it may block on locks, timeouts, nested RPCs, ...)."""
        try:
            result = handler(payload, src)
        except Exception as exc:  # noqa: BLE001 - sorted out by _served
            self._served(None, exc, number, kind, deliver, then, span)
            return
        if type(result) is not GeneratorType:
            self._served(result, None, number, kind, deliver, then, span)
            return
        name = self._serve_names.get(kind)
        if name is None:
            name = self._serve_names[kind] = f"rpc-serve[{self.site_id}]:{kind}"
        server = self.kernel.adopt(
            result,
            functools.partial(self._server_exited, number, kind, deliver, then, span),
            name,
        )
        if server.is_alive:
            self._servers[number] = server

    def _server_exited(
        self,
        number: int,
        kind: str,
        deliver: typing.Callable[[bool, object], None],
        then: typing.Callable[[], None] | None,
        span: "Span | None",
        server: Process,
    ) -> None:
        exc = server.exception
        result = server.value if exc is None else None
        self._served(result, exc, number, kind, deliver, then, span)

    def _served(
        self,
        result: object,
        exc: BaseException | None,
        number: int,
        kind: str,
        deliver: typing.Callable[[bool, object], None],
        then: typing.Callable[[], None] | None,
        span: "Span | None",
    ) -> None:
        """The one end of every serve: bookkeeping, span, outcome."""
        self._servers.pop(number, None)
        if span is not None:
            assert self.obs is not None
            self.obs.spans.finish(span, ok=not isinstance(exc, Interrupt))
        if exc is None:
            deliver(True, result)
        elif isinstance(exc, Interrupt):
            pass  # site crash tore this server down: nothing is replied
        elif isinstance(exc, ReproError):
            deliver(False, exc)
        else:  # handler bug, not protocol
            deliver(False, RemoteError(self.site_id, kind, exc))
        if then is not None:
            # Not inert (it may send the batch reply), so it keeps the
            # heap position a serving process's completion event had.
            self.kernel.schedule_callback(0.0, then)

    def _stop_late_starter(self, number: int) -> None:
        server = self._servers.pop(number, None)
        if server is not None:
            server.throw_interrupt("stop")

    def _spawn_batch(self, envelope: Message) -> None:
        """Unpack an ``rpc.batch``: serve every sub-call in its own event
        (identical semantics to unbatched delivery), answer all of them
        with one ``rpc.batch.reply`` once the last serve has ended."""
        batch = envelope.payload
        assert isinstance(batch, BatchCalls)
        results: dict[int, tuple[bool, object]] = {}
        remaining = [len(batch.calls)]

        def record(msg_id: int, ok: bool, value: object) -> None:
            results[msg_id] = (ok, value)

        def finish_one() -> None:
            remaining[0] -= 1
            if remaining[0] == 0 and self.running:
                self._reply_batch(envelope, batch, results)

        for msg_id, kind, payload, span_id in batch.calls:
            if not self._spawn_server(
                kind, payload, envelope.src, span_id,
                functools.partial(record, msg_id), finish_one,
            ):
                finish_one()

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
        kind = self._reply_kinds.get(request.kind)
        if kind is None:
            kind = self._reply_kinds[request.kind] = f"{request.kind}.reply"
        self._send_now(
            Message(self.site_id, request.src, kind, (ok, value), request.msg_id)
        )
