"""Unit tests for the kernel event loop and clock."""

import pytest

from repro.errors import SimError
from repro.sanitize.policy import ScheduleSpec, attach_policy
from repro.sim import Kernel


@pytest.fixture
def kernel():
    return Kernel(seed=7)


def assert_tiers_split(kernel):
    """The two-tier invariant: the heap holds nothing due at ``now``, and
    the now-tier is in seq order."""
    assert all(when > kernel.now for when, _seq, _fn, _entry in kernel._heap)
    assert all(when == kernel.now for when, _seq, _fn, _entry in kernel._tier)
    seqs = [seq for _when, seq, _fn, _entry in kernel._tier]
    assert seqs == sorted(seqs)


def loop_variants(seed=7):
    """One fresh kernel per drain-loop selection: nothing attached (the
    bare loop), a canonical tie-break policy (its batches are the
    now-tier), and a dispatch probe that checks the two-tier invariant
    before every event (both the probed loop). Event order,
    ``events_processed``, ``now`` and raised exceptions must not depend
    on which one runs."""
    bare, policed, probed = Kernel(seed=seed), Kernel(seed=seed), Kernel(seed=seed)
    attach_policy(policed, ScheduleSpec(mode="canonical"))
    probed.probes.subscribe(
        dispatch_begin=lambda seq, fn, entry: assert_tiers_split(probed)
    )
    assert not bare.probes and policed.probes and probed.probes
    return bare, policed, probed


@pytest.fixture
def kernels():
    return loop_variants()


class TestClock:
    def test_starts_at_zero(self, kernel):
        assert kernel.now == 0.0

    def test_run_until_time_advances_clock(self, kernels):
        for kernel in kernels:
            kernel.timeout(3)
            kernel.run(until=10)
            assert kernel.now == 10

    def test_run_until_does_not_process_later_events(self, kernels):
        for kernel in kernels:
            seen = []
            kernel.timeout(5).add_callback(lambda f: seen.append("early"))
            kernel.timeout(50).add_callback(lambda f: seen.append("late"))
            kernel.run(until=10)
            assert seen == ["early"]
            kernel.run()
            assert seen == ["early", "late"]

    def test_peek(self, kernel):
        assert kernel.peek() == float("inf")
        kernel.timeout(4)
        assert kernel.peek() == 4

    def test_step_empty_raises(self, kernels):
        for kernel in kernels:
            with pytest.raises(SimError):
                kernel.step()

    def test_cannot_schedule_into_past(self, kernel):
        fut = kernel.event()
        with pytest.raises(SimError):
            fut.succeed(delay=-1)


class TestRunUntilEvent:
    def test_returns_value(self, kernels):
        for kernel in kernels:
            t = kernel.timeout(2, value="done")
            assert kernel.run(t) == "done"
            assert kernel.now == 2

    def test_raises_on_failure(self, kernels):
        for kernel in kernels:
            fut = kernel.event()
            fut.fail(ValueError("x"), delay=1)
            with pytest.raises(ValueError):
                kernel.run(fut)

    def test_exhausted_queue_raises(self, kernels):
        for kernel in kernels:
            fut = kernel.event()  # never triggered
            kernel.timeout(1)
            with pytest.raises(SimError):
                kernel.run(fut)


class TestCallSoon:
    def test_runs_with_args(self, kernel):
        seen = []
        kernel.call_soon(seen.append, "a")
        kernel.call_soon(seen.append, "b", delay=1)
        kernel.run()
        assert seen == ["a", "b"]


class TestScheduleCallback:
    def test_fires_at_delay(self, kernel):
        seen = []
        kernel.schedule_callback(4.0, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [4.0]

    def test_cancel_prevents_fire(self, kernels):
        for kernel in kernels:
            seen = []
            timer = kernel.schedule_callback(4.0, seen.append, "x")
            timer.cancel()
            assert timer.cancelled
            kernel.run()
            assert seen == []

    def test_cancelled_entries_are_skipped_lazily(self, kernels):
        for kernel in kernels:
            # Cancelling must not disturb the heap; the dead entry is
            # dropped at pop time and never counted as a processed event.
            live = []
            timers = [
                kernel.schedule_callback(float(index), live.append, index)
                for index in range(10)
            ]
            for index, timer in enumerate(timers):
                if index % 2:
                    timer.cancel()
            kernel.run()
            assert live == [0, 2, 4, 6, 8]
            assert kernel.events_processed == 5

    def test_peek_skips_cancelled_heads(self, kernel):
        early = kernel.schedule_callback(1.0, lambda: None)
        kernel.schedule_callback(5.0, lambda: None)
        early.cancel()
        assert kernel.peek() == 5.0

    def test_step_over_cancelled_head_is_silent(self, kernels):
        for kernel in kernels:
            timer = kernel.schedule_callback(1.0, lambda: None)
            timer.cancel()
            kernel.step()  # drains the dead timer without raising
            with pytest.raises(SimError):
                kernel.step()  # heap truly empty now


class TestNowTier:
    """Zero-delay pushes go onto a FIFO beside the heap; heap entries due
    at a new instant are moved in front of them. Whichever loop drains,
    the order is the one-heap ``(time, seq)`` order."""

    def test_promoted_entries_run_before_what_their_instant_schedules(self, kernels):
        for kernel in kernels:
            order = []

            def first():
                order.append("first")
                kernel.call_soon(order.append, "first's follow-up")

            kernel.schedule_callback(1.0, first)
            kernel.schedule_callback(1.0, order.append, "second")
            kernel.run()
            assert order == ["first", "second", "first's follow-up"]
            assert kernel.events_processed == 3 and not kernel._tier

    def test_a_run_until_before_now_leaves_the_tier_alone(self, kernels):
        for kernel in kernels:
            seen = []
            kernel.schedule_callback(2.0, seen.append, "a")
            kernel.schedule_callback(2.0, seen.append, "b")
            kernel.step()  # clock at 2.0, "b" waits on the tier
            kernel.run(until=1.0)
            assert (seen, kernel.now, kernel.peek()) == (["a"], 2.0, 2.0)
            kernel.run(until=2.0)
            assert seen == ["a", "b"]

    def test_a_delay_too_small_to_move_the_clock_is_due_now(self, kernels):
        for kernel in kernels:
            far = 2.0**60  # one unit is below the float spacing here
            kernel.run(until=far)
            order = []
            tiny = kernel.schedule_callback(1.0, order.append, "tiny")
            kernel.call_soon(order.append, "zero")
            doomed = kernel.schedule_callback(1.0, order.append, "cancelled")
            assert tiny is not None and not kernel._heap  # a handle, on the tier
            doomed.cancel()
            assert kernel.peek() == far
            kernel.run()
            assert order == ["tiny", "zero"] and kernel.now == far
            assert kernel.events_processed == 2

    def test_a_timer_cancelled_at_its_own_instant_is_skipped(self, kernels):
        for kernel in kernels:
            seen = []
            kernel.schedule_callback(3.0, lambda: timer.cancel())
            timer = kernel.schedule_callback(3.0, seen.append, "fired")
            kernel.run()
            assert seen == [] and kernel.events_processed == 1

    def test_zero_delay_calls_return_no_handle(self, kernel):
        assert kernel.call_soon(print) is None
        assert kernel.schedule_callback(0.0, print) is None
        assert kernel.call_soon(print, delay=2.0).cancelled is False


class TestDeterminism:
    def test_same_seed_same_draws(self):
        def draws(seed):
            k = Kernel(seed=seed)
            rng = k.rng.stream("test")
            return [rng.random() for _ in range(5)]

        assert draws(42) == draws(42)
        assert draws(42) != draws(43)

    def test_streams_are_independent(self):
        k = Kernel(seed=1)
        a1 = [k.rng.stream("a").random() for _ in range(3)]
        k2 = Kernel(seed=1)
        # Interleave a draw from another stream; 'a' must be unaffected.
        k2.rng.stream("b").random()
        a2 = [k2.rng.stream("a").random() for _ in range(3)]
        assert a1 == a2

    def test_stream_is_cached(self):
        k = Kernel(seed=1)
        assert k.rng.stream("x") is k.rng.stream("x")

    def test_same_seed_same_event_trace(self):
        # A mixed workload (processes, timeouts, rng-driven delays,
        # cancelled timers) must replay identically for the same seed:
        # equal (time, tag) traces and equal processed-event counts.
        def trace(seed, kernel=None):
            kernel = kernel if kernel is not None else Kernel(seed=seed)
            rng = kernel.rng.stream("workload")
            events = []

            def worker(name, rounds):
                for round_no in range(rounds):
                    yield kernel.timeout(rng.uniform(0.5, 3.0))
                    events.append((kernel.now, f"{name}:{round_no}"))

            for name, rounds in (("a", 4), ("b", 3), ("c", 5)):
                kernel.process(worker(name, rounds))
            timers = [
                kernel.schedule_callback(
                    rng.uniform(1.0, 9.0), events.append, (0.0, f"t{i}")
                )
                for i in range(6)
            ]
            for timer in timers[::2]:
                timer.cancel()
            kernel.run()
            return events, kernel.events_processed

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)
        # ... whichever drain loop runs it.
        for kernel in loop_variants(seed=11):
            assert trace(11, kernel) == trace(11)
