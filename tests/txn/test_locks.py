"""Unit tests for the strict-2PL lock manager."""

import pytest

from repro.errors import DeadlockDetected
from repro.sim import Kernel
from repro.txn import LockManager, LockMode
from tests.sim.test_process import cyclic_garbage


@pytest.fixture
def kernel():
    return Kernel(seed=4)


@pytest.fixture
def locks(kernel):
    return LockManager(kernel, site_id=1)


def granted(future):
    """A lock future granted synchronously is triggered immediately."""
    return future.triggered and future.ok


class TestGrants:
    def test_free_item_grants_immediately(self, locks):
        assert granted(locks.acquire("T1@1", "X", LockMode.X))

    def test_shared_locks_coexist(self, locks):
        assert granted(locks.acquire("T1@1", "X", LockMode.S))
        assert granted(locks.acquire("T2@1", "X", LockMode.S))

    def test_exclusive_blocks_shared(self, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        assert not locks.acquire("T2@1", "X", LockMode.S).triggered

    def test_shared_blocks_exclusive(self, locks):
        locks.acquire("T1@1", "X", LockMode.S)
        assert not locks.acquire("T2@1", "X", LockMode.X).triggered

    def test_reentrant_same_mode(self, locks):
        locks.acquire("T1@1", "X", LockMode.S)
        assert granted(locks.acquire("T1@1", "X", LockMode.S))

    def test_x_covers_s(self, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        assert granted(locks.acquire("T1@1", "X", LockMode.S))

    def test_holds(self, locks):
        locks.acquire("T1@1", "X", LockMode.S)
        assert locks.holds("T1@1", "X", LockMode.S)
        assert not locks.holds("T1@1", "X", LockMode.X)
        assert not locks.holds("T2@1", "X", LockMode.S)

    def test_different_items_independent(self, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        assert granted(locks.acquire("T2@1", "Y", LockMode.X))


class TestUpgrade:
    def test_sole_holder_upgrades_immediately(self, locks):
        locks.acquire("T1@1", "X", LockMode.S)
        assert granted(locks.acquire("T1@1", "X", LockMode.X))
        assert locks.holds("T1@1", "X", LockMode.X)

    def test_upgrade_waits_for_other_readers(self, kernel, locks):
        locks.acquire("T1@1", "X", LockMode.S)
        locks.acquire("T2@1", "X", LockMode.S)
        upgrade = locks.acquire("T1@1", "X", LockMode.X)
        assert not upgrade.triggered
        locks.release_all("T2@1")
        kernel.run()
        assert upgrade.ok
        assert locks.holds("T1@1", "X", LockMode.X)

    def test_upgrade_jumps_queue(self, kernel, locks):
        locks.acquire("T1@1", "X", LockMode.S)
        locks.acquire("T2@1", "X", LockMode.S)
        waiter = locks.acquire("T3@1", "X", LockMode.X)  # queued first
        upgrade = locks.acquire("T1@1", "X", LockMode.X)  # jumps ahead
        locks.release_all("T2@1")
        kernel.run()
        assert upgrade.triggered and upgrade.ok
        assert not waiter.triggered


class TestReleaseAndFifo:
    def test_release_grants_next_waiter(self, kernel, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        waiter = locks.acquire("T2@1", "X", LockMode.X)
        locks.release_all("T1@1")
        kernel.run()
        assert waiter.ok
        assert locks.holds("T2@1", "X", LockMode.X)

    def test_release_grants_shared_batch(self, kernel, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        readers = [locks.acquire(f"T{i}@1", "X", LockMode.S) for i in (2, 3, 4)]
        locks.release_all("T1@1")
        kernel.run()
        assert all(r.ok for r in readers)

    def test_fifo_no_overtaking(self, kernel, locks):
        """A compatible S request must not overtake a queued X request."""
        locks.acquire("T1@1", "X", LockMode.S)
        writer = locks.acquire("T2@1", "X", LockMode.X)
        late_reader = locks.acquire("T3@1", "X", LockMode.S)
        assert not late_reader.triggered  # blocked behind the writer
        locks.release_all("T1@1")
        kernel.run()
        assert writer.ok
        assert not late_reader.triggered
        locks.release_all("T2@1")
        kernel.run()
        assert late_reader.ok

    def test_release_all_releases_every_item(self, kernel, locks):
        """Every waiter is granted, in the order the releaser acquired.

        The grant order fixes the kernel's event order, so it must not
        follow string hashes (which vary with ``PYTHONHASHSEED``).
        """
        items = ["X", "k7", "Y", "a", "item-3", "Z", "q", "b2"]
        granted_order = []
        waiters = []
        for item in items:
            locks.acquire("T1@1", item, LockMode.X)
        for n, item in enumerate(items, start=2):
            waiter = locks.acquire(f"T{n}@1", item, LockMode.S)
            waiter.add_callback(lambda _f, it=item: granted_order.append(it))
            waiters.append(waiter)
        locks.release_all("T1@1")
        kernel.run()
        assert all(w.ok for w in waiters)
        assert granted_order == items

    def test_release_unknown_txn_is_noop(self, locks):
        locks.release_all("T99@1")  # must not raise


class TestWaitIntrospection:
    def test_wait_edges_on_holders(self, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        locks.acquire("T2@1", "X", LockMode.X)
        assert ("T2@1", "T1@1") in locks.wait_edges()

    def test_wait_edges_on_queue_order(self, locks):
        locks.acquire("T1@1", "X", LockMode.S)
        locks.acquire("T2@1", "X", LockMode.X)
        locks.acquire("T3@1", "X", LockMode.X)
        edges = locks.wait_edges()
        assert ("T3@1", "T2@1") in edges  # queue-order blocking

    def test_waiting_txns(self, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        locks.acquire("T2@1", "X", LockMode.S)
        assert locks.waiting_txns() == {"T2@1"}


class TestVictimsAndTimeouts:
    def test_kill_waiter_fails_future(self, kernel, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        waiter = locks.acquire("T2@1", "X", LockMode.X)
        waiter.add_callback(lambda f: None)
        assert locks.kill_waiter("T2@1")
        kernel.run()
        assert isinstance(waiter.exception, DeadlockDetected)

    def test_kill_waiter_promotes_queue(self, kernel, locks):
        locks.acquire("T1@1", "X", LockMode.S)
        blocker = locks.acquire("T2@1", "X", LockMode.X)
        blocker.add_callback(lambda f: None)
        reader = locks.acquire("T3@1", "X", LockMode.S)
        locks.kill_waiter("T2@1")
        kernel.run()
        assert reader.ok  # freed by the kill

    def test_kill_nonwaiter_returns_false(self, locks):
        locks.acquire("T1@1", "X", LockMode.X)
        assert not locks.kill_waiter("T1@1")


class TestAbandonment:
    def test_interrupted_waiter_leaves_queue(self, kernel, locks):
        """A process interrupted while waiting must not hold its queue slot."""
        locks.acquire("T1@1", "X", LockMode.X)

        def waiter_body():
            yield locks.acquire("T2@1", "X", LockMode.X)

        proc = kernel.process(waiter_body())
        proc.defuse()

        def interrupter():
            yield kernel.timeout(1)
            proc.interrupt("crash")

        kernel.process(interrupter())
        kernel.run()
        reader = locks.acquire("T3@1", "X", LockMode.S)
        locks.release_all("T1@1")
        kernel.run()
        assert reader.ok
        assert locks.waiting_txns() == set()


class TestLiveEntriesOnly:
    """The table keeps an entry only while someone holds or queues on
    its item; the item's first-lock rank outlives the entry."""

    @staticmethod
    def live(locks):
        return {item for item, state in locks._table.items() if state.holders or state.queue}

    def test_every_route_out_drops_the_empty_entry(self, kernel, locks):
        # release_all: the holder leaves, nothing is queued.
        locks.acquire("T1@1", "A", LockMode.X)
        locks.acquire("T1@1", "B", LockMode.S)
        locks.release_all("T1@1")
        assert locks._table == {}
        # cancel: the waiter's request is failed, then its holds released.
        locks.acquire("T1@1", "A", LockMode.X)
        locks.acquire("T2@1", "B", LockMode.X)
        locks.acquire("T2@1", "A", LockMode.S).defuse()
        locks.cancel("T2@1")
        assert set(locks._table) == self.live(locks) == {"A"}
        # kill_waiter: the victim's request goes, the holder's entry stays.
        locks.acquire("T3@1", "A", LockMode.S).defuse()
        assert locks.kill_waiter("T3@1")
        assert set(locks._table) == self.live(locks) == {"A"}
        # abandon: an interrupted waiter leaves the queue.
        def waiter_body():
            yield locks.acquire("T4@1", "A", LockMode.X)

        proc = kernel.process(waiter_body())
        proc.defuse()
        kernel.run()
        assert self.live(locks) == {"A"} and locks.waiting_txns() == {"T4@1"}
        proc.interrupt("crash")
        kernel.run()
        assert locks.waiting_txns() == set()
        assert set(locks._table) == self.live(locks) == {"A"}
        locks.release_all("T1@1")
        assert locks._table == {}
        kernel.run()
        assert not locks._queued_by_txn

    def test_relocked_item_keeps_its_first_rank(self, locks):
        locks.acquire("T1@1", "A", LockMode.X)
        locks.release_all("T1@1")
        assert locks._table == {}
        locks.acquire("T1@1", "B", LockMode.X)
        locks.acquire("T1@1", "A", LockMode.X)  # A re-created after B
        assert list(locks._table) == ["B", "A"]
        assert [locks._table[item].order for item in "AB"] == [0, 1]
        locks.acquire("T2@1", "B", LockMode.X)
        locks.acquire("T3@1", "A", LockMode.X)
        # Walked in rank order: A (locked first) before B.
        assert locks.wait_edges() == [("T3@1", "T1@1"), ("T2@1", "T1@1")]


class TestNoReferenceCycles:
    @pytest.mark.parametrize("route", ["granted", "killed", "abandoned"])
    def test_a_request_that_left_the_queue_leaves_no_cycle(self, kernel, locks, route):
        def scenario():
            locks.acquire("T1@1", "X", LockMode.X)
            if route == "abandoned":
                def waiter_body():
                    yield locks.acquire("T2@1", "X", LockMode.X)

                proc = kernel.process(waiter_body())
                proc.defuse()
                kernel.run()
                proc.interrupt("crash")
            else:
                waiter = locks.acquire("T2@1", "X", LockMode.X)
                waiter.add_callback(lambda _future: None)
                if route == "granted":
                    locks.release_all("T1@1")
                else:
                    assert locks.kill_waiter("T2@1")
            kernel.run()
            locks.release_all("T1@1")
            locks.release_all("T2@1")
            assert locks._table == {} and not locks._queued_by_txn

        assert cyclic_garbage(scenario) == 0
