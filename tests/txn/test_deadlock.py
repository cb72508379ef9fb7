"""Unit tests for global deadlock detection."""

import pytest

from repro.errors import DeadlockDetected
from repro.sim import Kernel
from repro.txn import GlobalDeadlockDetector, LockManager, LockMode
from repro.txn.deadlock import DEADLOCK_INTERVAL, txn_seq


@pytest.fixture
def kernel():
    return Kernel(seed=6)


def test_txn_seq_parses_all_kinds():
    assert txn_seq("T17@3") == 17
    assert txn_seq("C5@1") == 5
    assert txn_seq("P123@9") == 123


class TestLocalCycle:
    def test_detects_and_kills_youngest(self, kernel):
        locks = LockManager(kernel, site_id=1)
        detector = GlobalDeadlockDetector(kernel, lambda: [locks])

        locks.acquire("T1@1", "X", LockMode.X)
        locks.acquire("T2@1", "Y", LockMode.X)
        w1 = locks.acquire("T1@1", "Y", LockMode.X)  # T1 waits on T2
        w2 = locks.acquire("T2@1", "X", LockMode.X)  # T2 waits on T1
        w1.add_callback(lambda f: None)
        w2.add_callback(lambda f: None)

        kernel.run(until=DEADLOCK_INTERVAL + 1)
        assert detector.victims_chosen == 1
        assert isinstance(w2.exception, DeadlockDetected)  # T2 is younger
        assert w1.ok  # survivor granted after victim removed

    def test_no_cycle_no_victim(self, kernel):
        locks = LockManager(kernel, site_id=1)
        detector = GlobalDeadlockDetector(kernel, lambda: [locks])
        locks.acquire("T1@1", "X", LockMode.X)
        waiter = locks.acquire("T2@1", "X", LockMode.X)
        kernel.run(until=4 * DEADLOCK_INTERVAL)
        assert detector.victims_chosen == 0
        assert not waiter.triggered


class TestDistributedCycle:
    def test_cycle_spanning_two_sites(self, kernel):
        """T1 holds X@1 and waits Y@2; T2 holds Y@2 and waits X@1."""
        locks1 = LockManager(kernel, site_id=1)
        locks2 = LockManager(kernel, site_id=2)
        detector = GlobalDeadlockDetector(kernel, lambda: [locks1, locks2])

        locks1.acquire("T1@1", "X", LockMode.X)
        locks2.acquire("T2@2", "Y", LockMode.X)
        w1 = locks2.acquire("T1@1", "Y", LockMode.X)
        w2 = locks1.acquire("T2@2", "X", LockMode.X)
        w1.add_callback(lambda f: None)
        w2.add_callback(lambda f: None)

        kernel.run(until=DEADLOCK_INTERVAL + 1)
        assert detector.victims_chosen == 1
        assert isinstance(w2.exception, DeadlockDetected)
        assert w1.ok

    def test_upgrade_deadlock_broken(self, kernel):
        """Two S-holders both upgrading is the classic unresolvable wait."""
        locks = LockManager(kernel, site_id=1)
        GlobalDeadlockDetector(kernel, lambda: [locks])
        locks.acquire("T1@1", "X", LockMode.S)
        locks.acquire("T2@1", "X", LockMode.S)
        u1 = locks.acquire("T1@1", "X", LockMode.X)
        u2 = locks.acquire("T2@1", "X", LockMode.X)
        u1.add_callback(lambda f: None)
        u2.add_callback(lambda f: None)
        kernel.run(until=DEADLOCK_INTERVAL + 1)
        # Victim is T2 (younger); to let T1's upgrade through, T2 must also
        # release its S lock — that is the TM's job on abort. Here we just
        # check the victim's request failed.
        assert isinstance(u2.exception, DeadlockDetected)

    def test_multiple_cycles_one_sweep(self, kernel):
        locks = LockManager(kernel, site_id=1)
        detector = GlobalDeadlockDetector(kernel, lambda: [locks])
        # Cycle A: T1 <-> T2 on X/Y; Cycle B: T3 <-> T4 on U/V.
        locks.acquire("T1@1", "X", LockMode.X)
        locks.acquire("T2@1", "Y", LockMode.X)
        locks.acquire("T3@1", "U", LockMode.X)
        locks.acquire("T4@1", "V", LockMode.X)
        for fut in (
            locks.acquire("T1@1", "Y", LockMode.X),
            locks.acquire("T2@1", "X", LockMode.X),
            locks.acquire("T3@1", "V", LockMode.X),
            locks.acquire("T4@1", "U", LockMode.X),
        ):
            fut.add_callback(lambda f: None)
        victims = detector.sweep()
        detector.stop()
        kernel.run()
        assert sorted(victims) == ["T2@1", "T4@1"]
