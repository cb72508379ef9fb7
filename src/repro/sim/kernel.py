"""The simulation event loop and virtual clock.

Every entry runs in ``(time, seq)`` order from one of two tiers: the
*now-tier*, a FIFO deque of what is due at the current instant, and the
heap, which holds only what is due strictly later. The clock advances
only when the tier is empty, moving every heap entry due at the new
instant onto the tier first; why that is exactly the one-heap order is
DESIGN.md §5 ("Two tiers").
"""

from __future__ import annotations

import bisect
import collections
import heapq
import operator
import typing

from repro.errors import SimError, UnhandledFailure
from repro.sim.events import F_CANCELLED, F_DEFUSED, F_PROCESSED, Future, Timeout
from repro.sim.probes import Probes
from repro.sim.process import Process
from repro.sim.rng import RngRegistry


#: The seq of a tier or heap entry ``(time, seq, fn, entry)``.
_SEQ = operator.itemgetter(1)


class Callback:
    """A cancellable scheduled callback: what :meth:`Kernel.schedule_callback`
    returns for a positive delay.

    Deadline queues (:mod:`repro.sim.deadlines`, one armed entry per
    queue) and the time-series sampler keep these handles; unlike a
    :class:`~repro.sim.events.Future` there is no name, no value, no
    callback list and no unhandled-failure bookkeeping — just a function
    and its arguments. A zero-delay ``schedule_callback`` /
    ``call_soon`` allocates none: its entry goes straight onto the
    now-tier, returns ``None``, and cannot be cancelled.

    ``cancel()`` is lazy: the entry stays where it is and is skipped when
    it comes up, which is O(1) instead of an O(n) re-heapify.
    """

    __slots__ = ("fn", "args", "_flags")

    #: Class-level sentinel read by the bare drain loop in
    #: :meth:`Kernel.run`: it tells a Callback from a Future with the one
    #: ``entry._callbacks`` load it needs for a Future anyway. ``None``
    #: here means "a Callback — call ``entry.fn(*entry.args)``" (a
    #: Future's ``_callbacks`` is never ``None`` while it is scheduled).
    _callbacks: typing.Any = None

    def __init__(
        self, fn: typing.Callable[..., None], args: tuple[object, ...]
    ) -> None:
        self.fn = fn
        self.args = args
        self._flags = 0

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return (self._flags & F_CANCELLED) != 0

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self._flags = F_CANCELLED

    def _process(self) -> None:
        self.fn(*self.args)

    def __repr__(self) -> str:
        state = "cancelled" if self._flags & F_CANCELLED else "scheduled"
        return f"<Callback {getattr(self.fn, '__name__', self.fn)!r} {state}>"


class Kernel:
    """A deterministic discrete-event scheduler.

    Time is a float starting at 0.0 and only moves forward. Events scheduled
    for the same instant are processed in scheduling order (FIFO), which
    makes runs fully deterministic for a fixed seed.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry` exposed as
        :attr:`rng`.
    """

    __slots__ = (
        "_now", "_heap", "_tier", "_seq", "rng", "_unhandled",
        "events_processed", "probes",
    )

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        #: Both tiers hold ``(time, seq, fn, entry)``: ``fn`` and its args
        #: for a zero-delay callback, ``None`` and the Future or Callback
        #: otherwise (its cancel flag is read at dispatch). The heap holds
        #: only entries due strictly after ``now``; the now-tier, every
        #: entry due at ``now``, in seq order.
        self._heap: list[tuple[float, int, None, Future | Callback]] = []
        self._tier: collections.deque[tuple[float, int, typing.Any, typing.Any]] = (
            collections.deque()
        )
        self._seq = 0
        self.rng = RngRegistry(seed)
        self._unhandled: list[Future] = []
        #: Count of entries processed (skipped cancelled entries
        #: excluded); the events/sec basis of the perf trajectory.
        self.events_processed = 0
        #: The probe bus (:mod:`repro.sim.probes`): the one attach point
        #: for every observer and for the tie-break policy. While it is
        #: empty :meth:`run` takes the bare drain loop; the kernel itself
        #: never imports a wall clock (REP001) — a profiler brings its own.
        self.probes = Probes()

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, event: Future | Callback, delay: float = 0.0) -> None:
        """Push ``event`` due ``delay`` from now: onto the now-tier if that
        time is ``now`` in floats, else onto the heap. The one tier
        decision; the zero-delay path of :meth:`schedule_callback` is its
        ``delay == 0`` case, without a handle."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        when = self._now + delay
        if when == self._now:
            self._tier.append((when, seq, None, event))
        else:
            heapq.heappush(self._heap, (when, seq, None, event))
        self._seq = seq + 1
        if self.probes.scheduled:
            for probe in self.probes.scheduled:
                probe(seq)

    def schedule_callback(
        self, delay: float, fn: typing.Callable[..., None], *args: object
    ) -> Callback | None:
        """Run ``fn(*args)`` after ``delay``.

        A positive delay returns a cancellable :class:`Callback` handle
        (the time-series sampler keeps its own). A zero delay
        returns ``None``: the call goes onto the now-tier as a plain
        ``(now, seq, fn, args)`` entry, allocating no handle, and cannot
        be cancelled. This is the cheap path for internal machinery;
        processes cannot wait on it — use :meth:`timeout` for that.
        """
        if not delay:
            seq = self._seq
            self._tier.append((self._now, seq, fn, args))
            self._seq = seq + 1
            if self.probes.scheduled:
                for probe in self.probes.scheduled:
                    probe(seq)
            return None
        handle = Callback(fn, args)
        self._schedule(handle, delay)
        return handle

    def reserve_seq(self) -> int:
        """Take the next scheduling seq without scheduling anything yet.

        For a deadline queue (:mod:`repro.sim.deadlines`) whose entry
        may later be armed with :meth:`schedule_at` at exactly the
        position a timer scheduled now would have had. The ``scheduled``
        probes see the seq here, from the context that reserved it.
        """
        seq = self._seq
        self._seq = seq + 1
        if self.probes.scheduled:
            for probe in self.probes.scheduled:
                probe(seq)
        return seq

    def schedule_at(
        self, when: float, seq: int, fn: typing.Callable[..., None], *args: object
    ) -> Callback:
        """Arm ``fn(*args)`` at ``(when, seq)``: a seq taken earlier by
        :meth:`reserve_seq`, and a time not before ``now``. Due now, the
        entry joins the now-tier at its seq position (the tier is in seq
        order); later, the heap. Returns a cancellable handle."""
        if when < self._now:
            raise SimError(f"cannot schedule into the past (at {when}, now {self._now})")
        handle = Callback(fn, args)
        if when == self._now:
            tier = self._tier
            tier.insert(bisect.bisect(tier, seq, key=_SEQ), (when, seq, None, handle))
        else:
            heapq.heappush(self._heap, (when, seq, None, handle))
        return handle

    def call_soon(
        self, fn: typing.Callable[..., None], *args: object, delay: float = 0.0
    ) -> Callback | None:
        """Run ``fn(*args)`` at the current time (or after ``delay``);
        returns what :meth:`schedule_callback` does — ``None`` unless
        ``delay`` is positive.

        The convenience spelling; per-message paths call
        :meth:`schedule_callback` directly and skip this hop.
        """
        return self.schedule_callback(delay, fn, *args)

    # -- factories ---------------------------------------------------------------

    def event(self, name: str = "") -> Future:
        """Create a new pending future."""
        return Future(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a future that succeeds ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: typing.Generator[Future, object, object], name: str = ""
    ) -> Process:
        """Start a new simulated process running ``generator``."""
        return Process(self, generator, name=name)

    def adopt(
        self,
        generator: typing.Generator[Future, object, object],
        on_exit: typing.Callable[[Process], None],
        name: str = "",
    ) -> Process:
        """Run ``generator`` as a process whose first step is *this* event.

        For a caller that already occupies the position at which the
        generator is due to start: the first step is taken in place, the
        outcome is reported by one ``on_exit(process)`` call (possibly
        before this returns), and the process cannot be waited on — so it
        costs no start and no completion event.
        """
        return Process(self, generator, name=name, on_exit=on_exit)

    # -- execution -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Cancelled entries at the head of the tier or the heap are
        discarded as a side effect (they are invisible either way).
        """
        tier = self._tier
        while tier and tier[0][2] is None and tier[0][3]._flags & F_CANCELLED:
            tier.popleft()
        if tier:
            return self._now
        heap = self._heap
        while heap and heap[0][3]._flags & F_CANCELLED:
            heapq.heappop(heap)
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its time.

        Cancelled entries encountered on the way are discarded without
        advancing the clock; if only cancelled entries remained, the call
        returns having processed nothing.
        """
        if not self._tier and not self._heap:
            raise SimError("step() on an empty event queue")
        self._drain(None, single=True)

    def run(self, until: float | Future | None = None) -> object:
        """Run the event loop.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a float — run until virtual time reaches it (clock ends exactly
          there);
        * a :class:`Future` — run until it is processed, returning its value
          (or raising its exception).
        """
        if isinstance(until, Future):
            # The caller observes success/failure through ``until.value``
            # below, so a failure of the target is not "unhandled".
            until.defuse()
            if not until.processed:
                self._drain(None, target=until)
            if not until.processed:
                raise SimError(f"event queue exhausted before {until!r} was processed")
            return until.value
        if self.probes:
            self._drain(until)
        elif until is None or self._now <= until:
            # Inlined bare loop, selected because nothing is attached:
            # this is the innermost loop of every measured simulation,
            # so it carries no probe walk, no stop test and no call
            # beyond the callbacks themselves and a clock advance —
            # ``Callback._process`` and ``Future._process`` are written
            # out here, told apart by ``Callback._callbacks``, the class
            # sentinel ``None``; ``_drain`` calls them as methods.
            tier = self._tier
            popleft = tier.popleft
            limit = float("inf") if until is None else until
            while tier or self._advance(limit):
                _when, _seq, fn, entry = popleft()
                if fn is not None:
                    self.events_processed += 1
                    fn(*entry)
                elif entry._flags & F_CANCELLED:
                    continue
                else:
                    self.events_processed += 1
                    callbacks = entry._callbacks
                    if callbacks is None:
                        entry.fn(*entry.args)
                    else:
                        entry._callbacks = None
                        entry._flags |= F_PROCESSED
                        if callbacks:
                            for callback in callbacks:
                                callback(entry)
                        elif entry._exc is not None and not entry._flags & F_DEFUSED:
                            self._unhandled.append(entry)
                if self._unhandled:
                    self._raise_unhandled()
        if until is not None and self._now < until:
            self._now = float(until)
        return None

    def _advance(self, limit: float) -> bool:
        """With the tier empty: move the clock to the heap's next live
        instant, if it is at most ``limit``, and move every heap entry due
        then onto the tier in seq order. False (clock untouched) if
        there is none."""
        heap = self._heap
        while heap and heap[0][3]._flags & F_CANCELLED:
            heapq.heappop(heap)
        if not heap or heap[0][0] > limit:
            return False
        when = self._now = heap[0][0]
        promote = self._tier.append
        while heap and heap[0][0] == when:
            promote(heapq.heappop(heap))
        return True

    def _drain(
        self,
        until: float | None,
        target: Future | None = None,
        single: bool = False,
    ) -> None:
        """The general drain loop: same event semantics as the bare one
        in :meth:`run`, plus whatever is on the probe bus — in any
        combination — and the two stop conditions the bare loop does
        not carry (``target`` processed; ``single``: one live event).

        The probe lists are bound here, once per call. ``loop_enter`` /
        ``loop_exit`` bracket the whole loop (the host profiler switches
        itself on and off there), ``dispatch_begin(seq, fn, entry)`` /
        ``dispatch_end()`` bracket each event, and a ``tiebreak`` policy
        picks among entries ready at the same instant.
        """
        probes = self.probes
        choose = probes.tiebreak[-1] if probes.tiebreak else None
        begin, end = probes.dispatch_begin, probes.dispatch_end
        tier = self._tier
        limit = float("inf") if until is None else until
        for probe in probes.loop_enter:
            probe()
        try:
            while self._now <= limit and (tier or self._advance(limit)):
                item = tier.popleft()
                if item[2] is None and item[3]._flags & F_CANCELLED:
                    continue
                if choose is not None and tier:
                    item = self._break_tie(item, choose)
                _when, seq, fn, entry = item
                self.events_processed += 1
                for probe in begin:
                    probe(seq, fn, entry)
                try:
                    if fn is None:
                        entry._process()
                    else:
                        fn(*entry)
                finally:
                    for probe in end:
                        probe()
                if self._unhandled:
                    self._raise_unhandled()
                if single or (target is not None and target._flags & F_PROCESSED):
                    break
        finally:
            for probe in probes.loop_exit:
                probe()

    def _break_tie(
        self, item: tuple, choose: typing.Callable[[int], int]
    ) -> tuple:
        """Let the tie-break policy pick among entries ready at ``now``.

        ``item`` is the live entry just taken; the tier's other live
        entries join the batch and ``choose``
        (:mod:`repro.sanitize.policy`) picks one by index. Only entries
        *simultaneously live at the same instant* are ever reordered:
        entries at distinct times, and entries scheduled *by* a running
        dispatch (they did not exist when the batch formed), are not.
        The rest stay on the tier in seq order, so a canonical (index-0)
        choice reproduces FIFO order exactly.
        """
        tier = self._tier
        batch = [item]
        batch.extend(
            other for other in tier
            if other[2] is not None or not other[3]._flags & F_CANCELLED
        )
        tier.clear()
        if len(batch) == 1:
            return batch[0]
        chosen = batch.pop(choose(len(batch)))
        tier.extend(batch)
        return chosen

    def _report_unhandled(self, event: Future) -> None:
        self._unhandled.append(event)

    def _raise_unhandled(self) -> typing.NoReturn:
        failed = list(self._unhandled)
        self._unhandled.clear()
        primary = failed[0]
        if len(failed) == 1:
            message = f"unobserved failure in {primary!r}"
        else:
            others = ", ".join(repr(event) for event in failed[1:])
            message = (
                f"{len(failed)} unobserved failures in one event: "
                f"{primary!r} (also: {others})"
            )
        error = UnhandledFailure(message)
        error.failures = tuple(event.exception for event in failed)  # type: ignore[attr-defined]
        raise error from primary.exception
