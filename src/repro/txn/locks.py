"""Strict two-phase locking: per-site lock tables.

The lock table is *volatile*: a site crash discards it wholesale (the
site's crash hook replaces the manager), which is precisely why the paper
needs unreadable marks + copiers rather than lock-based recovery.

Grant policy
------------
* Shared (S) locks are compatible with each other; exclusive (X) locks
  conflict with everything.
* Re-entrant: a holder asking for a mode already covered is granted
  immediately; an S-holder asking for X is an *upgrade*, queued at the
  front so it is granted as soon as the other readers drain.
* Otherwise strict FIFO: a request is granted only when it is at the head
  of the queue and compatible with all current holders (no starvation;
  the wait-for graph includes queue-order edges so FIFO-induced cycles
  are still detected).

Waiters may abandon the queue (their process is interrupted by a crash or
a deadlock abort); abandoned requests are purged lazily via the future's
abandon hook.

Cost model
----------
Commit and abort call :meth:`LockManager.cancel` at every site, so it must
not look at the whole table. ``_queued_by_txn`` indexes each transaction's
*queued* requests by lock state, next to ``_held_by_txn`` for its holds;
every route out of a queue (grant, abandon, victim kill) goes
through :meth:`LockManager._left_queue`, which keeps the index exact.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.errors import DeadlockDetected
from repro.sim.events import Future
from repro.sim.kernel import Kernel

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability


class LockMode(enum.Enum):
    S = "S"
    X = "X"

    def __str__(self) -> str:
        return self._value_

    def covers(self, other: "LockMode") -> bool:
        """True if holding ``self`` satisfies a request for ``other``."""
        return self is _X or other is _S

    def compatible(self, other: "LockMode") -> bool:
        """True if this mode can be held concurrently with ``other``."""
        return self is _S and other is _S


#: The members as module names: a global load, where ``LockMode.X`` is a
#: class attribute lookup (≈ 80 ns on 3.11) on every grant decision.
_S = LockMode.S
_X = LockMode.X


@dataclasses.dataclass(slots=True)
class _Request:
    txn_id: str
    mode: LockMode
    future: Future
    upgrade: bool = False
    #: Sim-time the request joined the queue (wait-time instrumentation).
    enqueued_at: float = 0.0


class _LockState:
    __slots__ = ("item", "order", "holders", "queue")

    def __init__(self, item: str, order: int) -> None:
        self.item = item
        #: The item's first-lock rank at this site (kept across eviction).
        self.order = order
        self.holders: dict[str, LockMode] = {}
        #: One request per waiting transaction, so short: a list, not a
        #: deque that preallocates a block per item.
        self.queue: list[_Request] = []


class LockManager:
    """The lock table of one site.

    Parameters
    ----------
    kernel:
        Simulation kernel (for futures and timeouts).
    site_id:
        Owning site, for diagnostics.
    """

    def __init__(
        self,
        kernel: Kernel,
        site_id: int,
        obs: "Observability | None" = None,
    ) -> None:
        self.kernel = kernel
        self.site_id = site_id
        self.obs = obs
        #: Live entries only: an item nobody holds or queues on is dropped
        #: (:meth:`_promote_waiters`) and re-created by its next acquire.
        self._table: dict[str, _LockState] = {}
        #: item -> first-lock rank, the table order the deadlock detector's
        #: inputs follow; one int per item ever locked, unlike an entry.
        self._rank: dict[str, int] = {}
        #: Items each transaction holds, in acquisition order (a dict as an
        #: ordered set: release order must not follow string hashes).
        self._held_by_txn: dict[str, dict[str, None]] = {}
        #: Lock states each transaction has a *queued* request on, one
        #: entry per request (a state repeats if two requests queue on it).
        self._queued_by_txn: dict[str, list[_LockState]] = {}
        self.stats_waits = 0
        self.stats_grants = 0

    # -- public API -----------------------------------------------------------

    def acquire(self, txn_id: str, item: str, mode: LockMode) -> Future:
        """Request a lock; the future succeeds when granted.

        Fails with :class:`DeadlockDetected` if the request is chosen as a
        deadlock victim.
        """
        access = self.kernel.probes.access
        if access:
            # Lock-table traffic is protocol-normal concurrency, so it is
            # recorded as an ordering note (report context), never
            # race-checked.
            where = f"LockManager.acquire[{mode.value}:{txn_id}]"
            for fn in access:
                fn(self.site_id, ("lock", item), "note", where)
        state = self._table.get(item)
        if state is None:
            rank = self._rank.setdefault(item, len(self._rank))
            state = self._table[item] = _LockState(item, rank)
        future = Future(self.kernel, name=("lock:%s:%s:%s", item, mode, txn_id))

        held = state.holders.get(txn_id)
        if held is not None and held.covers(mode):
            self.stats_grants += 1
            future.succeed()
            return future

        upgrade = held is _S and mode is _X
        request = _Request(txn_id, mode, future, upgrade=upgrade)

        if self._can_grant(state, request):
            self._grant(state, request)
            return future

        self.stats_waits += 1
        request.enqueued_at = self.kernel.now
        if upgrade:
            state.queue.insert(0, request)
        else:
            state.queue.append(request)
        self._queued_by_txn.setdefault(txn_id, []).append(state)
        future.on_abandoned(lambda _fut, it=item, req=request: self._abandon(it, req))
        return future

    def cancel(self, txn_id: str) -> None:
        """Abort-time cleanup: fail queued requests, then release holds.

        ``release_all`` alone is not enough when the transaction ends
        while one of its lock requests is still queued: the stale request
        would eventually be granted to a transaction that no longer
        exists and the lock would leak forever.
        """
        self.kill_waiter(txn_id)
        self.release_all(txn_id)

    def release_all(self, txn_id: str) -> None:
        """Strict 2PL release point: drop every lock held by ``txn_id``."""
        access = self.kernel.probes.access
        if access:
            where = f"LockManager.release_all[{txn_id}]"
            for fn in access:
                fn(self.site_id, ("lock",), "note", where)
        items = self._held_by_txn.pop(txn_id, {})
        for item in items:
            state = self._table.get(item)
            if state is None:
                continue
            state.holders.pop(txn_id, None)
            self._promote_waiters(item, state)

    def release_one(self, txn_id: str, item: str) -> None:
        """Release a single lock early.

        Only safe before the transaction has observed data under this
        lock — used when a read is refused (unreadable copy) right after
        its S lock was granted, so the lock carries no 2PL obligation and
        holding it would stall the copier that must renovate the copy.
        """
        state = self._table.get(item)
        if state is None or txn_id not in state.holders:
            return
        state.holders.pop(txn_id)
        held = self._held_by_txn.get(txn_id)
        if held is not None:
            held.pop(item, None)
        self._promote_waiters(item, state)

    def holds(self, txn_id: str, item: str, mode: LockMode) -> bool:
        """True if ``txn_id`` currently holds ``item`` in a covering mode."""
        state = self._table.get(item)
        if state is None:
            return False
        held = state.holders.get(txn_id)
        return held is not None and held.covers(mode)

    def kill_waiter(self, txn_id: str) -> bool:
        """Fail all queued requests of ``txn_id`` (deadlock victim).

        Returns True if any request was killed.
        """
        waiting = self._queued_by_txn.get(txn_id)
        if not waiting:
            return False
        # Table order, so same-instant failures and grants are scheduled
        # in the order a walk over the whole table would produce.
        for state in sorted(set(waiting), key=_table_order):
            for request in [r for r in state.queue if r.txn_id == txn_id]:
                state.queue.remove(request)
                self._left_queue(state, request)
                if not request.future.triggered:
                    request.future.fail(DeadlockDetected(txn_id))
            self._promote_waiters(state.item, state)
        return True

    # -- introspection for the deadlock detector ---------------------------------

    def wait_edges(self) -> list[tuple[str, str]]:
        """(waiter, blocker) pairs for the global wait-for graph.

        A queued request waits on every conflicting current holder and on
        every conflicting request ahead of it in the queue (FIFO order is
        itself a blocking relation). Only items somebody queues on are
        visited, in table order.
        """
        edges: list[tuple[str, str]] = []
        waited = {state for states in self._queued_by_txn.values() for state in states}
        for state in sorted(waited, key=_table_order):
            ahead: list[_Request] = []
            for request in state.queue:
                for holder, held_mode in state.holders.items():
                    if holder != request.txn_id and not request.mode.compatible(held_mode):
                        edges.append((request.txn_id, holder))
                for earlier in ahead:
                    if earlier.txn_id != request.txn_id and not request.mode.compatible(
                        earlier.mode
                    ):
                        edges.append((request.txn_id, earlier.txn_id))
                ahead.append(request)
        return edges

    def waiting_txns(self) -> set[str]:
        """Transactions with at least one queued request here."""
        return set(self._queued_by_txn)

    # -- internals ------------------------------------------------------------

    def _can_grant(self, state: _LockState, request: _Request) -> bool:
        if not self._compatible_with_holders(state, request):
            return False
        if request.upgrade:
            # Upgrades jump the queue; only the holders matter.
            return True
        return not state.queue

    def _grant(self, state: _LockState, request: _Request) -> None:
        state.holders[request.txn_id] = request.mode
        self._held_by_txn.setdefault(request.txn_id, {})[state.item] = None
        self.stats_grants += 1
        if not request.future.triggered:
            request.future.succeed()

    def _promote_waiters(self, item: str, state: _LockState) -> None:
        """Grant what the queue head now allows; drop the entry if that
        leaves it with no holder and no queue (every release, abandon and
        victim kill ends here)."""
        # Upgrades first (they sit at the front), then FIFO batches of
        # compatible requests.
        queue = state.queue
        while queue:
            head = queue[0]
            if not self._compatible_with_holders(state, head):
                break
            del queue[0]
            self._left_queue(state, head)
            state.holders[head.txn_id] = head.mode
            self._held_by_txn.setdefault(head.txn_id, {})[item] = None
            self.stats_grants += 1
            self._record_wait(item, head)
            if not head.future.triggered:
                head.future.succeed()
            if head.mode is _X:
                break
        if not state.holders and not queue:
            del self._table[item]

    def _record_wait(self, item: str, request: _Request) -> None:
        """Instrument a grant that had to queue: histogram + causal span.

        Called only on the waited path (never on immediate grants), so
        the uninstrumented fast path stays untouched.
        """
        obs = self.obs
        if obs is None:
            return
        obs.registry.histogram("locks.wait_time", self.site_id).observe(
            self.kernel.now - request.enqueued_at
        )
        if obs.spans_on:
            recorder = obs.spans
            recorder.complete(
                f"lock-wait:{item}", "lock", self.site_id, request.enqueued_at,
                parent=recorder.root_of(request.txn_id),
                txn_id=request.txn_id, mode=request.mode.value,
            )

    def _compatible_with_holders(self, state: _LockState, request: _Request) -> bool:
        txn_id = request.txn_id
        shared = request.mode is _S
        for holder, mode in state.holders.items():
            if holder != txn_id and not (shared and mode is _S):
                return False
        return True

    def _abandon(self, item: str, request: _Request) -> None:
        state = self._table.get(item)
        if state is None:
            return
        try:
            state.queue.remove(request)
        except ValueError:
            return
        self._left_queue(state, request)
        self._promote_waiters(item, state)

    def _left_queue(self, state: _LockState, request: _Request) -> None:
        """Bookkeeping for a request that just left ``state.queue``, by any
        route: drop its per-transaction index entry and its abandon hook
        (the hook holds the request, which holds the future)."""
        request.future._abandon_hook = None
        waiting = self._queued_by_txn[request.txn_id]
        waiting.remove(state)
        if not waiting:
            del self._queued_by_txn[request.txn_id]


def _table_order(state: _LockState) -> int:
    return state.order
