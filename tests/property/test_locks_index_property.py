"""State-machine test: the per-transaction queue index against a full scan.

``LockManager`` finds a transaction's queued requests through
``_queued_by_txn`` instead of walking the whole lock table. The oracle
below is the same manager with the three walks put back (victim kill,
waiter set, and the quadratic wait-edge build); both are driven through
identical random ``acquire / release_one / release_all / cancel /
kill_waiter / abandon`` sequences on their own kernels. After
every step they must agree on

* the order in which waiters were granted, failed or interrupted,
* ``wait_edges()`` (same list, same order) and ``waiting_txns()``,
* holders and queues item by item,

and the real manager's index must equal a scan of its own table — no
stale entry, no empty leftover, for any route out of a queue. The table
itself keeps only live entries (an item someone holds or queues on), so
the oracle walks it in first-lock rank (``order``), not dict order: an
evicted and re-created entry sits at the dict's end but keeps its rank.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import DeadlockDetected, Interrupt
from repro.sim import Kernel
from repro.txn import LockManager, LockMode

TXNS = [f"T{i}@1" for i in range(1, 6)]
ITEMS = ["A", "B", "C", "D"]

txns = st.sampled_from(TXNS)
items = st.sampled_from(ITEMS)
modes = st.sampled_from([LockMode.S, LockMode.X])


class ScanLockManager(LockManager):
    """The oracle: every lookup is a walk over the whole lock table."""

    def _walk(self):
        return sorted(self._table.values(), key=lambda state: state.order)

    def kill_waiter(self, txn_id):
        killed = False
        for state in self._walk():
            item = state.item
            victims = [r for r in state.queue if r.txn_id == txn_id]
            for request in victims:
                state.queue.remove(request)
                self._left_queue(state, request)
                killed = True
                if not request.future.triggered:
                    request.future.fail(DeadlockDetected(txn_id))
            if victims:
                self._promote_waiters(item, state)
        return killed

    def wait_edges(self):
        edges = []
        for state in self._walk():
            for index, request in enumerate(state.queue):
                for holder, held_mode in state.holders.items():
                    if holder != request.txn_id and not request.mode.compatible(held_mode):
                        edges.append((request.txn_id, holder))
                for ahead in list(state.queue)[:index]:
                    if ahead.txn_id != request.txn_id and not request.mode.compatible(
                        ahead.mode
                    ):
                        edges.append((request.txn_id, ahead.txn_id))
        return edges

    def waiting_txns(self):
        return {r.txn_id for state in self._table.values() for r in state.queue}


def scanned_index(manager):
    """``{txn: sorted items it has a queued request on}`` by full scan."""
    index = {}
    for state in manager._table.values():
        for request in state.queue:
            index.setdefault(request.txn_id, []).append(state.item)
    return {txn: sorted(found) for txn, found in index.items()}


class _Side:
    """One manager on its own kernel, with a log of waiter outcomes."""

    def __init__(self, manager_class):
        self.kernel = Kernel(seed=0)
        self.manager = manager_class(self.kernel, site_id=1)
        self.log = []
        self.waiters = []  # processes in acquire order, finished ones included

    def acquire(self, txn, item, mode):
        label = (len(self.waiters), txn, item, mode.value)
        # Defused: a waiter interrupted in the very instant its request is
        # failed leaves that failure with nobody to observe it.
        future = self.manager.acquire(txn, item, mode).defuse()
        self.waiters.append(self.kernel.process(self._wait(label, future)))

    def _wait(self, label, future):
        try:
            yield future
            self.log.append((label, "granted"))
        except DeadlockDetected:
            self.log.append((label, "failed"))
        except Interrupt:
            self.log.append((label, "interrupted"))

    def abandon(self, index):
        waiter = self.waiters[index % len(self.waiters)]
        if waiter.is_alive:
            waiter.interrupt("crash")

    def settle(self, delay):
        self.kernel.run(until=self.kernel.now + delay)

    def table(self):
        return {
            item: (
                dict(state.holders),
                [(r.txn_id, r.mode, r.upgrade) for r in state.queue],
            )
            for item, state in self.manager._table.items()
        }


class LockIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = _Side(LockManager)
        self.oracle = _Side(ScanLockManager)
        self.sides = (self.real, self.oracle)

    # Several rules may fire within one simulated instant (nothing runs
    # the kernels but ``settle``), so same-instant grant and failure
    # order is exercised too.

    @rule(txn=txns, item=items, mode=modes)
    def acquire(self, txn, item, mode):
        for side in self.sides:
            side.acquire(txn, item, mode)

    @rule(txn=txns, item=items)
    def release_one(self, txn, item):
        for side in self.sides:
            side.manager.release_one(txn, item)

    @rule(txn=txns)
    def release_all(self, txn):
        for side in self.sides:
            side.manager.release_all(txn)

    @rule(txn=txns)
    def cancel(self, txn):
        for side in self.sides:
            side.manager.cancel(txn)

    @rule(txn=txns)
    def kill_waiter(self, txn):
        killed = {side.manager.kill_waiter(txn) for side in self.sides}
        assert len(killed) == 1

    @rule(index=st.integers(min_value=0, max_value=63))
    def abandon(self, index):
        if self.real.waiters:
            for side in self.sides:
                side.abandon(index)

    @rule()
    def settle(self):
        for side in self.sides:
            side.settle(0.25)

    @invariant()
    def agree_with_the_scan(self):
        real, oracle = self.real.manager, self.oracle.manager
        assert self.real.log == self.oracle.log
        assert self.real.table() == self.oracle.table()
        assert real.wait_edges() == oracle.wait_edges()
        assert real.waiting_txns() == oracle.waiting_txns()
        assert real._held_by_txn == oracle._held_by_txn
        assert (real.stats_grants, real.stats_waits) == (
            oracle.stats_grants, oracle.stats_waits,
        )

    @invariant()
    def table_holds_only_live_entries(self):
        for side in self.sides:
            for item, state in side.manager._table.items():
                assert state.item == item
                assert state.holders or state.queue, item

    @invariant()
    def index_equals_scan(self):
        manager = self.real.manager
        indexed = {
            txn: sorted(state.item for state in states)
            for txn, states in manager._queued_by_txn.items()
        }
        assert indexed == scanned_index(manager)

    def teardown(self):
        """Ending every transaction leaves no holder, waiter or index entry."""
        for side in self.sides:
            for txn in TXNS:
                side.manager.cancel(txn)
            side.settle(1.0)
            assert not side.manager._queued_by_txn
            assert not side.manager._held_by_txn
            assert not side.manager._table
        assert self.real.log == self.oracle.log


LockIndexMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestLockIndex = LockIndexMachine.TestCase
