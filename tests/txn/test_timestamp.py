"""Tests for the timestamp-ordering scheduler (and its composition with
the recovery protocol — §1's "large group of concurrency control
algorithms")."""

import pytest

from repro.core import RowaaSystem
from repro.core.nominal import db_item_filter, ns_item
from repro.errors import TransactionAborted
from repro.histories import check_one_sr, check_sr, check_theorem3
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.txn import TxnConfig, TxnKind


def make_system(kernel, n_sites=3, items=None, **kwargs):
    system = RowaaSystem(
        kernel,
        n_sites=n_sites,
        items=items if items is not None else {"X": 0, "Y": 0},
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
        config=TxnConfig(rpc_timeout=25.0),
        concurrency="to",
        **kwargs,
    )
    system.boot()
    return system


@pytest.fixture
def kernel():
    return Kernel(seed=77)


@pytest.fixture
def system(kernel):
    return make_system(kernel)


def write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def read_program(item):
    def program(ctx):
        value = yield from ctx.read(item)
        return value

    return program


class TestBasicTO:
    def test_roundtrip(self, kernel, system):
        kernel.run(system.submit(1, write_program("X", 5)))
        assert kernel.run(system.submit(2, read_program("X"))) == 5

    def test_sequential_increments(self, kernel, system):
        def increment(ctx):
            value = yield from ctx.read("X")
            yield from ctx.write("X", value + 1)

        for site in (1, 2, 3):
            kernel.run(system.submit(site, increment))
        assert system.copy_value(1, "X") == 3

    def test_old_reader_rejected_after_younger_write(self):
        """A reader whose timestamp predates a committed write aborts —
        whichever request type carries the read."""

        def single(ctx):
            value = yield from ctx.read("X")
            return value

        def batched(ctx):
            pairs = yield from ctx.dm_read_batch(1, ["X"], expected=ctx.view[1])
            return pairs[0][0]

        for read in (single, batched):
            kernel = Kernel(seed=77)
            system = make_system(kernel)

            def slow_reader(ctx):
                yield kernel.timeout(20)  # a younger writer commits meanwhile
                value = yield from read(ctx)
                return value

            proc = system.submit(1, slow_reader)
            kernel.run(until=5)
            kernel.run(system.submit(2, write_program("X", 9)))
            with pytest.raises(TransactionAborted) as excinfo:
                kernel.run(proc)
            assert excinfo.value.reason == "timestamp-order-violation", read

    def test_old_writer_rejected_after_younger_read(self, kernel, system):
        def slow_writer(ctx):
            yield kernel.timeout(20)
            yield from ctx.write("X", 1)

        proc = system.submit(1, slow_writer)
        kernel.run(until=5)
        kernel.run(system.submit(2, read_program("X")))  # younger read commits
        with pytest.raises(TransactionAborted) as excinfo:
            kernel.run(proc)
        assert excinfo.value.reason == "timestamp-order-violation"

    def test_concurrent_conflicts_never_deadlock(self, kernel, system):
        """The TO variant of the 2PL deadlock test: resolved by abort,
        never by waiting — and fast (no detector sweep needed)."""

        def xy(ctx):
            a = yield from ctx.read("X")
            yield kernel.timeout(3)
            yield from ctx.write("Y", a + 1)

        def yx(ctx):
            b = yield from ctx.read("Y")
            yield kernel.timeout(3)
            yield from ctx.write("X", b + 1)

        p1 = system.submit(1, xy)
        p2 = system.submit(2, yx)
        kernel.run(until=60)
        system.stop()
        kernel.run()
        outcomes = []
        for proc in (p1, p2):
            try:
                kernel.run(proc)
                outcomes.append("ok")
            except TransactionAborted:
                outcomes.append("aborted")
        assert "ok" in outcomes
        assert system.deadlock_detector.victims_chosen == 0
        assert check_sr(system.recorder).ok

    def test_thomas_write_rule_skips_stale_apply(self, kernel, system):
        """Two blind writers committing out of timestamp order: the final
        value is the *younger* writer's on every copy."""

        def slow_old_writer(ctx):
            yield kernel.timeout(30)
            yield from ctx.write("Y", "old")

        proc_old = system.submit(1, slow_old_writer)  # smaller timestamp
        kernel.run(until=5)
        kernel.run(system.submit(2, write_program("Y", "young")))
        try:
            kernel.run(proc_old)  # may commit (blind write) or abort
        except TransactionAborted:
            pass
        kernel.run(until=kernel.now + 20)
        for site in (1, 2, 3):
            assert system.copy_value(site, "Y") == "young"


class TestNsReadsAreScheduled:
    """§3.2: every user transaction's implicit read of NS[*] is an
    ordinary scheduled read — under TO that means timestamp-checked, not
    S-locked by the 2PL handler it used to fall through to."""

    def test_begin_read_records_rts_and_takes_no_lock(self, kernel, system):
        samples = []

        def sample():
            active = bool(system.tms[1]._active)
            held = [dict(dm.lock_manager._held_by_txn) for dm in system.dms.values()]
            samples.append((active, held))

        def increment(ctx):
            value = yield from ctx.read("X")
            yield kernel.timeout(3)
            yield from ctx.write("X", value + 1)

        for tick in range(12):
            kernel.schedule_callback(0.5 * tick + 0.25, sample)
        kernel.run(system.submit(1, increment))
        kernel.run(until=10)
        assert any(active for active, _held in samples)
        assert all(held == [{}, {}, {}] for _active, held in samples)
        assert {ns_item(site) for site in (1, 2, 3)} <= set(system.dms[1]._rts)
        assert system.copy_value(2, "X") == 1

    def test_old_control_write_rejected_after_younger_ns_read(self, kernel, system):
        """The directed violation: an older control transaction must not
        change NS[3] under a younger user transaction that has read it."""

        def control(ctx):
            yield kernel.timeout(10)
            yield from ctx.dm_write(1, ns_item(3), 0, privileged=True)

        def open_user(ctx):
            yield kernel.timeout(15)  # stays open (NS[*] read) until t=20

        control_proc = system.submit(1, control, kind=TxnKind.CONTROL)
        kernel.run(until=5)
        user_proc = system.submit(1, open_user)
        with pytest.raises(TransactionAborted) as excinfo:
            kernel.run(control_proc)
        assert excinfo.value.reason == "timestamp-order-violation"
        kernel.run(user_proc)
        assert system.copy_value(1, ns_item(3)) != 0


class TestTOWithRecovery:
    def test_crash_recover_cycle_under_to(self, kernel, system):
        kernel.run(system.submit(1, write_program("X", 1)))
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit_with_retry(1, write_program("X", 2), attempts=6))
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        kernel.run(until=kernel.now + 200)
        assert system.copy_value(3, "X") == 2
        assert system.unreadable_counts()[3] == 0

    def test_histories_one_serializable_under_to(self, kernel, system):
        def increment(item):
            def program(ctx):
                value = yield from ctx.read(item)
                yield from ctx.write(item, value + 1)

            return program

        procs = []
        for round_no in range(4):
            for site in (1, 2, 3):
                procs.append(
                    system.submit_with_retry(site, increment("X"), attempts=6)
                )
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 400)
        system.stop()
        kernel.run(until=kernel.now + 10)
        assert check_theorem3(system.recorder).ok
        verdict = check_one_sr(system.recorder, item_filter=db_item_filter)
        assert verdict.ok, verdict
