"""Integration tests: TM + DM + 2PC + locks over the simulated network.

Uses the StrictROWA baseline (no session machinery) to exercise the
transaction substrate end to end.
"""

import pytest

from repro.baselines import StrictROWA
from repro.errors import TransactionAborted
from repro.histories import check_one_sr, check_sr
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.system import DatabaseSystem
from repro.txn import TxnConfig


def make_system(kernel, n_sites=3, items=None, **kwargs):
    items = items if items is not None else {"X": 0, "Y": 0}
    system = DatabaseSystem(
        kernel,
        n_sites=n_sites,
        items=items,
        strategy_factory=lambda _system: StrictROWA(),
        latency=ConstantLatency(1.0),
        config=TxnConfig(rpc_timeout=30.0),
        **kwargs,
    )
    system.boot()
    return system


@pytest.fixture
def kernel():
    return Kernel(seed=13)


@pytest.fixture
def system(kernel):
    return make_system(kernel)


def run_txn(kernel, system, site_id, program):
    proc = system.submit(site_id, program)
    return kernel.run(proc)


class TestBasicTransactions:
    def test_write_then_read(self, kernel, system):
        def writer(ctx):
            yield from ctx.write("X", 42)

        def reader(ctx):
            value = yield from ctx.read("X")
            return value

        run_txn(kernel, system, 1, writer)
        assert run_txn(kernel, system, 2, reader) == 42

    def test_write_reaches_all_copies(self, kernel, system):
        def writer(ctx):
            yield from ctx.write("X", 7)

        run_txn(kernel, system, 1, writer)
        for site_id in system.cluster.site_ids:
            copy = system.cluster.site(site_id).copies.get("X")
            assert copy.value == 7

    def test_read_your_own_write(self, kernel, system):
        def program(ctx):
            yield from ctx.write("X", 5)
            value = yield from ctx.read("X")
            return value

        assert run_txn(kernel, system, 1, program) == 5

    def test_read_only_txn(self, kernel, system):
        def reader(ctx):
            x = yield from ctx.read("X")
            y = yield from ctx.read("Y")
            return (x, y)

        assert run_txn(kernel, system, 3, reader) == (0, 0)

    def test_transaction_returns_value(self, kernel, system):
        def program(ctx):
            yield from ctx.write("Y", "hello")
            return "done"

        assert run_txn(kernel, system, 2, program) == "done"

    def test_sequential_counter_increments(self, kernel, system):
        def increment(ctx):
            value = yield from ctx.read("X")
            yield from ctx.write("X", value + 1)

        for site in (1, 2, 3, 1, 2):
            run_txn(kernel, system, site, increment)
        final = system.cluster.site(1).copies.get("X").value
        assert final == 5


class TestAtomicityAndIsolation:
    def test_concurrent_increments_serialize(self, kernel, system):
        def increment(ctx):
            value = yield from ctx.read("X")
            yield from ctx.write("X", value + 1)

        procs = [system.submit(site, increment) for site in (1, 2, 3)]
        system.stop()
        kernel.run()
        outcomes = []
        for proc in procs:
            try:
                kernel.run(proc)
                outcomes.append("ok")
            except TransactionAborted:
                outcomes.append("aborted")
        committed = outcomes.count("ok")
        final = system.cluster.site(1).copies.get("X").value
        assert final == committed  # no lost updates
        assert check_sr(system.recorder).ok
        assert check_one_sr(system.recorder).ok

    def test_transfer_preserves_sum(self, kernel, system):
        def seed(ctx):
            yield from ctx.write("X", 100)
            yield from ctx.write("Y", 100)

        run_txn(kernel, system, 1, seed)

        def transfer(amount):
            def program(ctx):
                x = yield from ctx.read("X")
                y = yield from ctx.read("Y")
                yield from ctx.write("X", x - amount)
                yield from ctx.write("Y", y + amount)

            return program

        for site in (1, 2, 3):
            system.submit(site, transfer(10 * site))
        system.stop()
        kernel.run()
        x = system.cluster.site(2).copies.get("X").value
        y = system.cluster.site(2).copies.get("Y").value
        assert x + y == 200
        assert check_one_sr(system.recorder).ok

    def test_deadlock_resolved_by_victim_abort(self, kernel, system):
        def xy(ctx):
            a = yield from ctx.read("X")
            yield kernel.timeout(3)  # widen the race window
            yield from ctx.write("Y", a + 1)

        def yx(ctx):
            b = yield from ctx.read("Y")
            yield kernel.timeout(3)
            yield from ctx.write("X", b + 1)

        p1 = system.submit(1, xy)
        p2 = system.submit(2, yx)
        kernel.run(until=100)  # let the deadlock detector sweep
        system.stop()
        kernel.run()
        results = []
        for proc in (p1, p2):
            try:
                kernel.run(proc)
                results.append("ok")
            except TransactionAborted as exc:
                results.append(exc.reason)
        # At least one succeeds; if both grabbed their read locks, the
        # other is a deadlock victim.
        assert "ok" in results
        assert check_sr(system.recorder).ok

    def test_aborted_txn_leaves_no_trace(self, kernel, system):
        def failing(ctx):
            yield from ctx.write("X", 999)
            raise ValueError("app bug")

        proc = system.submit(1, failing)
        with pytest.raises(ValueError):
            kernel.run(proc)
        system.stop()
        kernel.run()
        assert system.cluster.site(1).copies.get("X").value == 0
        # And the item is not left locked:
        def reader(ctx):
            value = yield from ctx.read("X")
            return value

        assert kernel.run(system.submit(2, reader)) == 0


class TestFailuresROWA:
    def test_write_blocks_when_replica_down(self, kernel, system):
        system.crash(3)

        def writer(ctx):
            yield from ctx.write("X", 1)

        proc = system.submit(1, writer)
        with pytest.raises(TransactionAborted):
            kernel.run(proc)

    def test_read_survives_replica_down(self, kernel, system):
        system.crash(3)

        def reader(ctx):
            value = yield from ctx.read("X")
            return value

        assert kernel.run(system.submit(1, reader)) == 0

    def test_user_txn_refused_at_down_site(self, kernel, system):
        system.crash(2)

        def reader(ctx):
            value = yield from ctx.read("X")
            return value

        proc = system.submit(2, reader)
        with pytest.raises(Exception):
            kernel.run(proc)
        assert system.tms[2].stats.refused == 1

    def test_coordinator_crash_releases_remote_locks(self, kernel, system):
        """Orphan termination: locks left by a crashed coordinator free up."""

        def slow_writer(ctx):
            yield from ctx.write("X", 1)
            yield kernel.timeout(1000)  # crash hits before commit

        system.submit(1, slow_writer)
        kernel.run(until=10)
        system.crash(1)
        kernel.run(until=600)  # DECISION_TIMEOUT elapses; orphan aborted

        def writer(ctx):
            yield from ctx.write("Y", 2)  # Y is free anyway
            value = yield from ctx.read("X")
            return value

        # X must be unlocked again at sites 2 and 3 — but ROWA writes need
        # all sites up; read X instead to prove the lock is gone.
        def read_x(ctx):
            value = yield from ctx.read("X")
            return value

        assert kernel.run(system.submit(2, read_x)) == 0

    def test_retry_wrapper_eventually_succeeds(self, kernel, system):
        attempts = []

        def flaky(ctx):
            attempts.append(1)
            if len(attempts) < 2:
                # Simulate a transient protocol failure on first attempt.
                from repro.errors import TransactionError

                raise TransactionError("transient")
            value = yield from ctx.read("X")
            return value

        proc = system.submit_with_retry(1, flaky, attempts=3)
        assert kernel.run(proc) == 0
        assert len(attempts) == 2


class TestStats:
    def test_commit_and_abort_counters(self, kernel, system):
        def ok(ctx):
            yield from ctx.write("X", 1)

        def bad(ctx):
            yield from ctx.write("X", 2)
            from repro.errors import TransactionError

            raise TransactionError("forced")

        kernel.run(system.submit(1, ok))
        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(1, bad))
        stats = system.tms[1].stats
        assert stats.committed == 1
        assert stats.aborted == 1
        assert stats.aborts_by_reason["transaction-error"] == 1
        assert len(stats.commit_latencies) == 1
