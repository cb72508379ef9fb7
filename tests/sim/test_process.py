"""Unit tests for simulated processes."""

import gc
import traceback

import pytest

from repro.errors import DeadlockDetected, Interrupt, SimError, TransactionAborted, UnhandledFailure
from repro.sim import Kernel, Queue
from tests.sim.test_kernel import loop_variants


@pytest.fixture
def kernel():
    return Kernel(seed=3)


class TestBasics:
    def test_process_runs_and_returns(self, kernel):
        def body():
            yield kernel.timeout(5)
            return "result"

        proc = kernel.process(body())
        assert kernel.run(proc) == "result"
        assert kernel.now == 5

    def test_requires_generator(self, kernel):
        with pytest.raises(TypeError):
            kernel.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_non_future_fails_process(self, kernel):
        def body():
            yield 42  # type: ignore[misc]

        proc = kernel.process(body())
        with pytest.raises(SimError):
            kernel.run(proc)

    def test_exception_in_body_fails_process(self, kernel):
        def body():
            yield kernel.timeout(1)
            raise RuntimeError("inside")

        proc = kernel.process(body())
        with pytest.raises(RuntimeError):
            kernel.run(proc)

    def test_yield_value_passthrough(self, kernel):
        def body():
            got = yield kernel.timeout(1, value="tick")
            return got

        assert kernel.run(kernel.process(body())) == "tick"

    def test_failed_event_raises_inside_body(self, kernel):
        fut = kernel.event()
        fut.fail(KeyError("k"), delay=2)

        def body():
            try:
                yield fut
            except KeyError:
                return "caught"

        assert kernel.run(kernel.process(body())) == "caught"

    def test_processes_wait_on_each_other(self, kernel):
        def child():
            yield kernel.timeout(3)
            return 99

        def parent():
            value = yield kernel.process(child())
            return value + 1

        assert kernel.run(kernel.process(parent())) == 100

    def test_two_processes_interleave(self, kernel):
        trace = []

        def worker(name, delay):
            for _ in range(2):
                yield kernel.timeout(delay)
                trace.append((kernel.now, name))

        kernel.process(worker("fast", 1))
        kernel.process(worker("slow", 3))
        kernel.run()
        assert trace == [(1, "fast"), (2, "fast"), (3, "slow"), (6, "slow")]

    def test_is_alive(self, kernel):
        def body():
            yield kernel.timeout(1)

        proc = kernel.process(body())
        assert proc.is_alive
        kernel.run()
        assert not proc.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, kernel):
        def body():
            try:
                yield kernel.timeout(100)
            except Interrupt as intr:
                return ("interrupted", intr.cause, kernel.now)

        proc = kernel.process(body())
        kernel.process(self._interrupter(kernel, proc, delay=4, cause="stop"))
        assert kernel.run(proc) == ("interrupted", "stop", 4)

    @staticmethod
    def _interrupter(kernel, target, delay, cause):
        yield kernel.timeout(delay)
        target.interrupt(cause)

    def test_interrupt_finished_process_raises(self, kernel):
        def body():
            yield kernel.timeout(1)

        proc = kernel.process(body())
        kernel.run()
        with pytest.raises(SimError):
            proc.interrupt()

    def test_uncaught_interrupt_fails_process(self, kernel):
        def body():
            yield kernel.timeout(100)

        proc = kernel.process(body())
        kernel.process(self._interrupter(kernel, proc, delay=1, cause=None))
        with pytest.raises(Interrupt):
            kernel.run(proc)

    def test_rewait_after_interrupt(self, kernel):
        """A process may resume waiting on the same event after an interrupt."""
        tick = kernel.timeout(10, value="tick")

        def body():
            try:
                yield tick
            except Interrupt:
                pass
            value = yield tick
            return (value, kernel.now)

        proc = kernel.process(body())
        kernel.process(self._interrupter(kernel, proc, delay=2, cause=None))
        assert kernel.run(proc) == ("tick", 10)

    def test_stale_wakeup_after_interrupt_is_ignored(self, kernel):
        """The original wait target firing must not doubly resume the body."""
        slow = kernel.timeout(5, value="slow")
        resumes = []

        def body():
            try:
                yield slow
            except Interrupt:
                pass
            got = yield kernel.timeout(10, value="other")
            resumes.append(got)
            return got

        proc = kernel.process(body())
        kernel.process(self._interrupter(kernel, proc, delay=1, cause=None))
        assert kernel.run(proc) == "other"
        assert resumes == ["other"]


class TestAdopted:
    """``kernel.adopt``: the caller's event is the process's first turn,
    the outcome goes to one ``on_exit`` call, and neither the start nor
    the completion is a kernel event. Same under every drain loop."""

    def test_first_step_runs_inside_the_constructor(self):
        for kernel in loop_variants():
            trace, exits = [], []

            def body(kernel=kernel, trace=trace):
                trace.append("first step")
                yield kernel.timeout(3)
                trace.append("resumed")
                return "done"

            def adopt(kernel=kernel, trace=trace, exits=exits):
                proc = kernel.adopt(body(), exits.append, name="adopted")
                trace.append("constructor returned")
                assert proc.is_alive and not exits

            kernel.call_soon(adopt)
            kernel.run()
            assert trace == ["first step", "constructor returned", "resumed"]
            # The adopting callback, and the timeout that resumes the
            # body: no start event, no completion event.
            assert kernel.events_processed == 2
            (proc,) = exits
            assert not proc.is_alive and proc.value == "done" and proc.name == "adopted"

    def test_a_body_that_never_yields_exits_before_adopt_returns(self):
        for kernel in loop_variants():
            exits = []

            def body():
                return 7
                yield  # pragma: no cover - makes this a generator

            proc = kernel.adopt(body(), exits.append)
            assert exits == [proc] and proc.value == 7
            kernel.run()
            assert kernel.events_processed == 0

    def test_on_exit_once_for_a_raised_exception_and_nothing_unhandled(self):
        for kernel in loop_variants():
            exits = []

            def body(kernel=kernel):
                yield kernel.timeout(1)
                raise RuntimeError("inside")

            kernel.adopt(body(), exits.append)
            kernel.run()  # an awaitable process would raise UnhandledFailure here
            (proc,) = exits
            assert isinstance(proc.exception, RuntimeError)
            assert not proc.is_alive
            assert kernel.events_processed == 1  # the timeout

    def test_on_exit_once_for_interrupt(self):
        for kernel in loop_variants():
            exits = []

            def body(kernel=kernel):
                yield kernel.timeout(100)

            proc = kernel.adopt(body(), exits.append)
            kernel.call_soon(proc.interrupt, "stop", delay=4)
            kernel.run()
            assert exits == [proc]
            assert isinstance(proc.exception, Interrupt) and proc.exception.cause == "stop"
            assert kernel.now == 100  # the abandoned timeout still drains
            with pytest.raises(SimError):
                proc.interrupt()

    def test_an_adopted_process_cannot_be_waited_on(self):
        for kernel in loop_variants():
            def sleeper(kernel=kernel):
                yield kernel.timeout(5)

            adopted = kernel.adopt(sleeper(), lambda proc: None)
            with pytest.raises(SimError, match="adopted"):
                adopted.add_callback(lambda event: None)

            def waiter():
                yield adopted

            with pytest.raises(SimError, match="adopted"):
                kernel.run(kernel.process(waiter()))
            kernel.run()
            with pytest.raises(SimError, match="adopted"):  # finished: still refused
                adopted.add_callback(lambda event: None)

    def test_a_plain_process_still_starts_deferred_and_completes_by_event(self):
        """Two processes and a callback created in one instant run in
        creation order, each process's start and completion being an
        event of its own; the second can wait on the first."""
        for kernel in loop_variants():
            trace = []

            def first(kernel=kernel, trace=trace):
                trace.append("first starts")
                yield kernel.timeout(0)
                trace.append("first resumes")
                return "value"

            def second(proc, trace=trace):
                trace.append("second starts")
                got = yield proc
                trace.append(f"second got {got}")

            proc = kernel.process(first())
            kernel.call_soon(trace.append, "callback")
            kernel.process(second(proc))
            trace.append("created")
            kernel.run()
            assert trace == [
                "created", "first starts", "callback", "second starts",
                "first resumes", "second got value",
            ]
            # 2 starts + the callback + the timeout + 2 completions.
            assert kernel.events_processed == 6
            assert kernel.now == 0


class TestQueue:
    def test_put_then_get(self, kernel):
        q = Queue(kernel)
        q.put("a")
        assert kernel.run(q.get()) == "a"

    def test_get_blocks_until_put(self, kernel):
        q = Queue(kernel)
        got = []

        def consumer():
            item = yield q.get()
            got.append((kernel.now, item))

        def producer():
            yield kernel.timeout(5)
            q.put("x")

        kernel.process(consumer())
        kernel.process(producer())
        kernel.run()
        assert got == [(5, "x")]

    def test_fifo_order_items(self, kernel):
        q = Queue(kernel)
        for i in range(3):
            q.put(i)
        assert [kernel.run(q.get()) for _ in range(3)] == [0, 1, 2]

    def test_fifo_order_waiters(self, kernel):
        q = Queue(kernel)
        got = []

        def consumer(name):
            item = yield q.get()
            got.append((name, item))

        kernel.process(consumer("first"))
        kernel.process(consumer("second"))
        kernel.run()
        q.put(1)
        q.put(2)
        kernel.run()
        assert got == [("first", 1), ("second", 2)]

    def test_clear_drops_items(self, kernel):
        q = Queue(kernel)
        q.put("stale")
        q.clear()
        assert len(q) == 0


def cyclic_garbage(scenario):
    """How many objects the cyclic collector finds after ``scenario()``
    ran with it off: what reference counting alone could not free."""
    gc.collect()
    gc.disable()
    try:
        scenario()
        return gc.collect()
    finally:
        gc.enable()


def frame_names(error):
    return [frame.name for frame in traceback.extract_tb(error.__traceback__)]


class TestNoReferenceCycles:
    """What a finished process leaves is freed by reference counting;
    a bug's traceback keeps the frames that raised it."""

    def test_a_caught_failure_leaves_no_cycle(self, kernel):
        def body():
            ack = kernel.event()
            ack.fail(TransactionAborted("T1@1", "victim"), delay=1)
            try:
                yield ack
            except TransactionAborted:
                pass
            yield kernel.timeout(1)
            return "done"

        def scenario():
            assert kernel.run(kernel.process(body())) == "done"

        assert cyclic_garbage(scenario) == 0

    @pytest.mark.parametrize("error", [DeadlockDetected, RuntimeError])
    def test_a_failed_adopted_serve_leaves_no_cycle(self, kernel, error):
        def serve():
            yield kernel.timeout(1)
            raise error("T1@1")

        def scenario():
            failures = []
            kernel.adopt(serve(), lambda process: failures.append(process.exception))
            kernel.run()
            assert isinstance(failures[0], error)

        assert cyclic_garbage(scenario) == 0

    def test_a_bug_keeps_the_frames_that_raised_it(self, kernel):
        def serve():
            yield kernel.timeout(1)
            raise RuntimeError("bug")

        exits = []
        kernel.adopt(serve(), exits.append)
        kernel.run()
        assert frame_names(exits[0].exception)[-1] == "serve"

    @pytest.mark.parametrize("error", [TransactionAborted("T1@1", "victim"), KeyError("bug")])
    def test_an_unobserved_failure_still_raises_chained(self, kernel, error):
        def body():
            yield kernel.timeout(1)
            raise error

        kernel.process(body())
        with pytest.raises(UnhandledFailure) as info:
            kernel.run()
        assert info.value.__cause__ is error
        if isinstance(error, KeyError):
            assert frame_names(error)[-1] == "body"


class TestExitHook:
    """``kernel.process(..., on_exit=...)``: an awaitable process whose
    hook runs when the generator ends. The hook is no waiter: the
    completion is still an event, and a failure nobody waits on is still
    unobserved unless the hook defuses it."""

    def test_hook_runs_at_the_end_and_the_completion_is_still_an_event(self):
        for kernel in loop_variants():
            exits = []

            def body(kernel=kernel):
                yield kernel.timeout(2)
                return "done"

            proc = kernel.process(body(), on_exit=exits.append)
            kernel.run()
            assert exits == [proc] and proc.value == "done"
            assert kernel.events_processed == 3  # start, timeout, completion

    def test_hook_is_no_waiter(self):
        for kernel in loop_variants():
            def body(kernel=kernel):
                yield kernel.timeout(1)
                raise RuntimeError("inside")

            kernel.process(body(), on_exit=lambda proc: None)
            with pytest.raises(UnhandledFailure):
                kernel.run()

    def test_hook_may_defuse(self):
        for kernel in loop_variants():
            def body(kernel=kernel):
                yield kernel.timeout(1)
                raise RuntimeError("inside")

            proc = kernel.process(body(), on_exit=lambda proc: proc.defuse())
            kernel.run()
            assert isinstance(proc.exception, RuntimeError)
