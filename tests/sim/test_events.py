"""Unit tests for futures, timeouts, and composite events."""

import pytest

from repro.errors import SimError, UnhandledFailure
from repro.sim import Kernel
from tests.sim.test_kernel import loop_variants


@pytest.fixture
def kernel():
    return Kernel(seed=1)


class TestFuture:
    def test_starts_pending(self, kernel):
        fut = kernel.event("f")
        assert not fut.triggered
        assert not fut.processed

    def test_succeed_carries_value(self, kernel):
        fut = kernel.event()
        fut.succeed(42)
        kernel.run()
        assert fut.processed
        assert fut.ok
        assert fut.value == 42

    def test_fail_carries_exception(self, kernel):
        fut = kernel.event()
        seen = []
        fut.add_callback(lambda f: seen.append(f.exception))
        fut.fail(ValueError("boom"))
        kernel.run()
        assert not fut.ok
        assert isinstance(seen[0], ValueError)

    def test_value_raises_failure_exception(self, kernel):
        fut = kernel.event()
        fut.add_callback(lambda f: None)
        fut.fail(KeyError("x"))
        kernel.run()
        with pytest.raises(KeyError):
            _ = fut.value

    def test_value_before_trigger_raises(self, kernel):
        fut = kernel.event()
        with pytest.raises(SimError):
            _ = fut.value

    def test_double_trigger_rejected(self, kernel):
        fut = kernel.event()
        fut.succeed(1)
        with pytest.raises(SimError):
            fut.succeed(2)
        with pytest.raises(SimError):
            fut.fail(ValueError())

    def test_fail_requires_exception_instance(self, kernel):
        fut = kernel.event()
        with pytest.raises(TypeError):
            fut.fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_processed_still_runs(self, kernel):
        fut = kernel.event()
        fut.succeed("late")
        kernel.run()
        seen = []
        fut.add_callback(lambda f: seen.append(f.value))
        kernel.run()
        assert seen == ["late"]

    def test_remove_callback(self, kernel):
        fut = kernel.event()
        seen = []
        cb = lambda f: seen.append(1)  # noqa: E731
        fut.add_callback(cb)
        fut.remove_callback(cb)
        fut.add_callback(lambda f: seen.append(2))
        fut.succeed()
        kernel.run()
        assert seen == [2]

    def test_unhandled_failure_raises_in_run(self, kernel):
        fut = kernel.event()
        fut.fail(RuntimeError("nobody listens"))
        with pytest.raises(UnhandledFailure):
            kernel.run()

    def test_unhandled_failure_carries_failures_tuple(self):
        for kernel in loop_variants():  # bare and probed drain loops alike
            fut = kernel.event()
            boom = RuntimeError("nobody listens")
            fut.fail(boom)
            kernel.timeout(1)
            with pytest.raises(UnhandledFailure) as info:
                kernel.run()
            assert info.value.failures == (boom,)
            assert info.value.__cause__ is boom
            assert (kernel.events_processed, kernel.now) == (1, 0.0)
            kernel.step()  # raised once: the kernel stays usable
            assert (kernel.events_processed, kernel.now) == (2, 1.0)

    def test_multiple_unhandled_failures_aggregate(self, kernel):
        # Regression: when several failures are reported while one event
        # is processed, the raised error must carry all of them — the
        # old code raised for the first and silently dropped the rest.
        first, second = kernel.event("first"), kernel.event("second")
        first.defuse()
        second.defuse()
        first.fail(RuntimeError("one"))
        second.fail(ValueError("two"))
        kernel.run()  # defused: both process silently
        kernel.report_unhandled(first)
        kernel.report_unhandled(second)
        kernel.timeout(0)
        with pytest.raises(UnhandledFailure) as info:
            kernel.run()
        assert "2 unobserved failures" in str(info.value)
        assert info.value.failures == (first.exception, second.exception)
        assert info.value.__cause__ is first.exception
        # The pending list was cleared along with the raise: the kernel
        # stays usable and does not re-raise stale failures.
        kernel.timeout(1)
        kernel.run()

    def test_defused_failure_is_silent(self, kernel):
        fut = kernel.event()
        fut.defuse()
        fut.fail(RuntimeError("ignored"))
        kernel.run()
        assert not fut.ok


class TestTimeout:
    def test_fires_at_correct_time(self, kernel):
        times = []
        t = kernel.timeout(7.5, value="hi")
        t.add_callback(lambda f: times.append((kernel.now, f.value)))
        kernel.run()
        assert times == [(7.5, "hi")]

    def test_zero_delay_fires_now(self, kernel):
        t = kernel.timeout(0)
        kernel.run()
        assert t.processed
        assert kernel.now == 0.0

    def test_negative_delay_rejected(self, kernel):
        # Every push site makes the one tier decision, so every one
        # refuses the past the same way, consuming no sequence number.
        pushes = [
            lambda: kernel.timeout(-1),
            lambda: kernel.schedule_callback(-1, print),
            lambda: kernel.call_soon(print, delay=-1),
            lambda: kernel.event().succeed(delay=-1),
            lambda: kernel.event().fail(ValueError(), delay=-1),
        ]
        for push in pushes:
            with pytest.raises(SimError):
                push()
        assert kernel._seq == 0 and kernel.peek() == float("inf")

    def test_ordering_among_timeouts(self, kernel):
        order = []
        for delay, label in [(3, "c"), (1, "a"), (2, "b")]:
            kernel.timeout(delay).add_callback(lambda f, lbl=label: order.append(lbl))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, kernel):
        order = []
        for label in "xyz":
            kernel.timeout(5).add_callback(lambda f, lbl=label: order.append(lbl))
        kernel.run()
        assert order == ["x", "y", "z"]
