"""Property-based tests for the simulation substrate and versions."""

import heapq

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SimError, UnhandledFailure
from repro.sanitize.policy import DirectedPolicy
from repro.sim import Callback, Future, Kernel
from repro.sim.deadlines import DeadlineQueue
from repro.sim.events import F_CANCELLED, F_PROCESSED
from repro.storage import Version


class TestEventOrdering:
    @given(delays=st.lists(st.floats(min_value=0, max_value=1000,
                                     allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_timeouts_fire_in_time_order(self, delays):
        kernel = Kernel(seed=0)
        fired = []
        for delay in delays:
            kernel.timeout(delay).add_callback(
                lambda _ev, d=delay: fired.append((kernel.now, d))
            )
        kernel.run()
        times = [time for time, _delay in fired]
        assert times == sorted(times)
        assert all(time == delay for time, delay in fired)

    @given(n=st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_same_time_events_fifo(self, n):
        kernel = Kernel(seed=0)
        fired = []
        for index in range(n):
            kernel.timeout(5.0).add_callback(lambda _ev, i=index: fired.append(i))
        kernel.run()
        assert fired == list(range(n))


class SingleHeapKernel(Kernel):
    """The reference: the kernel's scheduler as it was before the
    now-tier. One heap holds every entry and pops in ``(time, seq)``
    order; a tie batch is every live heap entry at the popped time.
    Futures, timeouts and processes are the real ones."""

    def _schedule(self, event, delay=0.0):
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    def schedule_callback(self, delay, fn, *args):
        handle = Callback(fn, args)
        self._schedule(handle, delay)
        return handle

    def schedule_at(self, when, seq, fn, *args):
        if when < self._now:
            raise SimError(f"cannot schedule into the past (at {when}, now {self._now})")
        handle = Callback(fn, args)
        heapq.heappush(self._heap, (when, seq, handle))
        return handle

    def peek(self):
        heap = self._heap
        while heap and heap[0][2]._flags & F_CANCELLED:
            heapq.heappop(heap)
        return heap[0][0] if heap else float("inf")

    def step(self):
        if not self._heap:
            raise SimError("step() on an empty event queue")
        self._drain(None, single=True)

    def run(self, until=None):
        if isinstance(until, Future):
            return super().run(until)
        self._drain(until)
        if until is not None and self._now < until:
            self._now = float(until)

    def _drain(self, until, target=None, single=False):
        choose = self.probes.tiebreak[-1] if self.probes.tiebreak else None
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            when, seq, entry = heapq.heappop(heap)
            if entry._flags & F_CANCELLED:
                continue
            if choose is not None and heap and heap[0][0] == when:
                batch = [(seq, entry)]
                while heap and heap[0][0] == when:
                    _when, seq2, entry2 = heapq.heappop(heap)
                    if not entry2._flags & F_CANCELLED:
                        batch.append((seq2, entry2))
                if len(batch) > 1:
                    seq, entry = batch.pop(choose(len(batch)))
                    for item in batch:
                        heapq.heappush(heap, (when, *item))
            self._now = when
            self.events_processed += 1
            for probe in self.probes.dispatch_begin:
                probe(seq, None, entry)
            entry._process()
            if self._unhandled:
                self._raise_unhandled()
            if single or (target is not None and target._flags & F_PROCESSED):
                break


#: A program is a forest of scheduling nodes ``(kind, delay, children)``:
#: each node schedules something; when it fires it logs and schedules its
#: children from inside the dispatch (an ``at`` node plants them at once).
KINDS = ("call", "cancelled", "timeout", "succeed", "fail", "unhandled", "process", "at")
DELAYS = (0.0, 0.0, 0.5, 1.0, 2.0)
nodes = st.recursive(
    st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(KINDS), st.sampled_from(DELAYS),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=20,
)
#: How the program is driven after it is planted: runs to a boundary
#: (an offset from the base instant), single steps and peeks.
drive_actions = st.lists(
    st.one_of(
        st.tuples(st.just("until"), st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))),
        st.tuples(st.just("step"), st.just(0.0)),
        st.tuples(st.just("peek"), st.just(0.0)),
    ),
    max_size=8,
)


def plant(kernel, node, tag, log):
    """Schedule ``node`` on ``kernel``; it logs ``(now, tag)`` when it fires."""
    kind, delay, children = node

    def fire(*_ignored):
        log.append((kernel.now, tag))
        for index, child in enumerate(children):
            plant(kernel, child, f"{tag}.{index}", log)

    if kind == "call":
        kernel.schedule_callback(delay, fire)
    elif kind == "cancelled":
        # Cancelled at its own instant by an entry one seq ahead of it:
        # after both were moved up from the heap, if they were.
        delay = delay or 1.0
        kernel.schedule_callback(delay, lambda: timer.cancel())
        timer = kernel.schedule_callback(delay, fire)
    elif kind == "timeout":
        kernel.timeout(delay).add_callback(fire)
    elif kind in ("succeed", "fail"):
        future = kernel.event()
        future.add_callback(fire)
        if kind == "succeed":
            future.succeed(tag, delay=delay)
        else:
            future.fail(ValueError(tag), delay=delay)
    elif kind == "unhandled":
        kernel.event().fail(ValueError(tag), delay=delay)
        fire()
    elif kind == "at":
        # A seq reserved now and armed by an entry scheduled *before* the
        # reservation, as a deadline queue arms its next entry: the
        # children take the seqs in between, so at a zero delay the armed
        # entry joins the now-tier behind them, ahead of later siblings.
        when = kernel.now + delay
        kernel.schedule_callback(
            0.0, lambda: kernel.schedule_at(when, seq, lambda: log.append((kernel.now, tag)))
        )
        for index, child in enumerate(children):
            plant(kernel, child, f"{tag}.{index}", log)
        seq = kernel.reserve_seq()
    else:
        def body():
            yield kernel.timeout(delay)
            fire()
            yield kernel.timeout(0)
            log.append((kernel.now, f"{tag}/end"))

        kernel.process(body())


def trace(kernel, program, far, drive, plan=None, record=True):
    """Plant ``program`` and drive it; everything observable, in order."""
    log, dispatched = [], []
    if record:
        kernel.probes.subscribe(
            dispatch_begin=lambda seq, fn, entry: dispatched.append((kernel.now, seq))
        )
    policy = None
    if plan is not None:
        policy = DirectedPolicy(plan)
        kernel.probes.subscribe(tiebreak=policy.choose)
    # Far out, a delay of 0.5 or 1.0 does not move the clock in floats.
    base = 1e16 if far else 0.0
    kernel.run(until=base)
    for index, node in enumerate(program):
        plant(kernel, node, str(index), log)
    for action, offset in [*drive, ("run", 0.0)]:
        try:
            if action == "until":
                kernel.run(until=base + offset)
            elif action == "step":
                kernel.step()
            elif action == "peek":
                log.append(("peek", kernel.peek()))
            else:
                while True:
                    try:
                        kernel.run()
                        break
                    except UnhandledFailure:
                        log.append(("raised", kernel.now))
        except UnhandledFailure:
            log.append(("raised", kernel.now))
        except SimError:
            log.append(("empty", kernel.now))
        log.append((action, kernel.now, kernel.events_processed))
    return {
        "log": log, "dispatched": dispatched, "now": kernel.now,
        "events": kernel.events_processed,
        "decisions": policy.decisions if policy else None,
    }


class TestNowTierOrder:
    """The now-tier reorders nothing: on random programs, both drain loops
    dispatch exactly what one heap keyed ``(time, seq)`` dispatches."""

    @given(
        program=st.lists(nodes, min_size=1, max_size=4),
        far=st.booleans(),
        drive=drive_actions,
        plan=st.lists(st.integers(min_value=0, max_value=3), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_dispatch_order_is_the_single_heap_order(self, program, far, drive, plan):
        reference = trace(SingleHeapKernel(), program, far, drive)
        probed = trace(Kernel(), program, far, drive)
        bare = trace(Kernel(), program, far, drive, record=False)
        assert probed == reference
        assert bare == {**reference, "dispatched": []}
        # A directed tie-break policy picks from the same batches: the
        # now-tier's live entries are the heap's live entries at ``now``.
        assert trace(Kernel(), program, far, drive, plan) == trace(
            SingleHeapKernel(), program, far, drive, plan
        )


class PerCallTimers:
    """The reference for a :class:`DeadlineQueue`: one kernel timer per
    deadline, cancelled one by one."""

    def __init__(self, kernel, delay, expire):
        self.kernel, self.delay, self.expire = kernel, delay, expire
        self._timers = []

    def add(self, *args):
        timer = self.kernel.schedule_callback(self.delay, self.expire, *args)
        self._timers.append(timer)
        return timer

    def clear(self):
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()


#: Fixed delays of the three deadline streams; with integer and half
#: steps, expiries of different streams, adds and ticks share instants.
STREAM_DELAYS = (1.0, 2.0, 2.5)
queue_programs = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 2)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("clear"), st.integers(0, 2)),
        # An add made from inside an event ``delay`` from now.
        st.tuples(st.just("defer"), st.integers(0, 2), st.sampled_from((0.0, 0.5, 1.0))),
        st.tuples(st.just("tick"), st.sampled_from((0.0, 0.5, 1.0, 2.0))),
        st.tuples(st.just("run"), st.sampled_from((0.0, 0.5, 1.0, 2.0))),
    ),
    max_size=40,
)


class _Streams:
    """Three deadline streams on one kernel, logging every expiry and
    tick at the ``(time, seq)`` of the event that ran it."""

    def __init__(self, stream_class):
        self.kernel = Kernel(seed=0)
        self.log = []
        self.handles = []
        self.current = None
        self.kernel.probes.subscribe(dispatch_begin=self._dispatching)
        self.streams = [
            stream_class(self.kernel, delay, lambda label, q=q: self._expire(q, label))
            for q, delay in enumerate(STREAM_DELAYS)
        ]

    def _dispatching(self, seq, _fn, _entry):
        self.current = seq

    def _expire(self, q, label):
        self.log.append((self.kernel.now, self.current, "expire", q, label))
        if label % 3 == 0:
            # An expiry that adds to its own stream, as a timed-out call
            # retried at once would.
            self.add(q)

    def _tick(self, label):
        self.log.append((self.kernel.now, self.current, "tick", label))

    def add(self, q):
        self.handles.append(self.streams[q].add(len(self.handles)))

    def step(self, action):
        kernel = self.kernel
        kind = action[0]
        if kind == "add":
            self.add(action[1])
        elif kind == "cancel":
            if self.handles:
                self.handles[action[1] % len(self.handles)].cancel()
        elif kind == "clear":
            self.streams[action[1]].clear()
        elif kind == "defer":
            kernel.schedule_callback(action[2], self.add, action[1])
        elif kind == "tick":
            kernel.schedule_callback(action[1], self._tick, len(self.log))
        else:
            kernel.run(until=kernel.now + action[1])


def armed_entries(kernel, queue):
    """Live kernel entries that fire ``queue``, on both tiers."""
    return [
        entry
        for _when, _seq, fn, entry in [*kernel._tier, *kernel._heap]
        if fn is None and isinstance(entry, Callback) and not entry.cancelled
        and getattr(entry.fn, "__self__", None) is queue
    ]


class TestDeadlineQueue:
    """A deadline queue arms one kernel entry, yet every live deadline
    expires in the very event (``(time, seq)``) its own timer would have
    run in."""

    @given(program=queue_programs)
    @settings(max_examples=200, deadline=None)
    def test_expiries_match_per_call_timers(self, program):
        queued, timed = _Streams(DeadlineQueue), _Streams(PerCallTimers)
        for action in [*program, ("run", 10.0)]:
            for side in (queued, timed):
                side.step(action)
            assert queued.log == timed.log
            for queue in queued.streams:
                armed = armed_entries(queued.kernel, queue)
                assert len(armed) == (1 if len(queue) else 0)
        assert queued.log == timed.log
        assert all(len(queue) == 0 for queue in queued.streams)

    def test_rejects_a_non_positive_delay(self):
        with pytest.raises(ValueError):
            DeadlineQueue(Kernel(), 0.0, print)


class TestVersionOrdering:
    versions = st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ).map(lambda t: Version(*t))

    @given(a=versions, b=versions)
    @settings(max_examples=200, deadline=None)
    def test_total_order(self, a, b):
        assert (a < b) or (b < a) or (a == b)

    @given(a=versions, b=versions, c=versions)
    @settings(max_examples=200, deadline=None)
    def test_transitive(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(a=versions)
    @settings(max_examples=50, deadline=None)
    def test_initial_is_minimum(self, a):
        assert Version.initial() <= a


class TestDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_full_system_run_is_reproducible(self, seed):
        """Same seed → bit-identical history (op list) across two runs."""
        def run_once():
            from repro.core import RowaaSystem
            from repro.net import ConstantLatency

            kernel = Kernel(seed=seed)
            system = RowaaSystem(
                kernel, n_sites=3, items={"X": 0, "Y": 0},
                latency=ConstantLatency(1.0),
            )
            system.boot()

            def mixed(ctx):
                x = yield from ctx.read("X")
                yield from ctx.write("Y", x)

            for site in (1, 2, 3, 1):
                system.submit(site, mixed)
            system.crash(3)
            kernel.run(until=40)
            system.power_on(3)
            kernel.run(until=200)
            system.stop()
            kernel.run(until=210)
            return [
                (op.time, op.txn_id, op.op.value, op.item, op.site, op.version_seq)
                for op in system.recorder.ops
            ]

        assert run_once() == run_once()
