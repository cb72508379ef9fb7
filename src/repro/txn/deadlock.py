"""Global deadlock detection over the distributed wait-for graph.

Strict 2PL over replicated data deadlocks in the usual ways (lock-order
inversion, S→X upgrade races), and write-all replication adds distributed
cycles spanning sites. We run a periodic global detector: it unions the
wait-for edges of every live site's lock table, finds a cycle, and kills
the *youngest* transaction in it (highest sequence number — the cheapest
to redo). Which cycle is found when several exist follows from the order
the edges were inserted in (live sites in order, each table's
``wait_edges()`` in order; see :mod:`repro.digraph`), so the victim — and
with it the rest of the schedule — is a function of the seed alone.

The detector is a simulation-level process with direct access to the lock
tables. A production system would run edge-chasing or a probe protocol;
the paper is silent on the mechanism and only requires that *some* correct
concurrency control exists (§2), so centralised detection is a faithful
stand-in that produces the same set of aborts.
"""

from __future__ import annotations

import typing

from repro.digraph import DiGraph, NoCycle, find_cycle
from repro.sim.kernel import Kernel
from repro.sim.process import defuse_signal
from repro.txn.locks import LockManager

#: Virtual time between detection sweeps.
DEADLOCK_INTERVAL = 25.0


def txn_seq(txn_id: str) -> int:
    """Extract the global sequence number from a transaction id."""
    return int(txn_id[1:].split("@", 1)[0])


class GlobalDeadlockDetector:
    """Periodically breaks wait-for cycles by aborting the youngest waiter.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    lock_managers:
        Zero-argument callable returning the lock managers of the
        currently *live* sites (a crashed site's table is gone along with
        its in-flight transactions, so it must not contribute edges).
    """

    def __init__(
        self,
        kernel: Kernel,
        lock_managers: typing.Callable[[], typing.Iterable[LockManager]],
    ) -> None:
        self.kernel = kernel
        self._lock_managers = lock_managers
        self.victims_chosen = 0
        self._proc = kernel.process(self._run(), "deadlock-detector", defuse_signal)

    def stop(self) -> None:
        """Halt the periodic sweeps (lets ``kernel.run()`` drain)."""
        if self._proc.is_alive:
            self._proc.interrupt("stop")

    def _run(self) -> typing.Generator:
        while True:
            yield self.kernel.timeout(DEADLOCK_INTERVAL)
            self.sweep()

    def sweep(self) -> list[str]:
        """One detection pass; returns the victims aborted (usually 0/1).

        Repeats until the graph is acyclic, so several independent cycles
        are all broken within one sweep.
        """
        victims: list[str] = []
        while True:
            victim = self._break_one_cycle()
            if victim is None:
                return victims
            victims.append(victim)

    def _break_one_cycle(self) -> str | None:
        managers = list(self._lock_managers())
        graph = DiGraph()
        for manager in managers:
            graph.add_edges_from(manager.wait_edges())
        try:
            cycle = find_cycle(graph)
        except NoCycle:
            return None
        cycle_txns = {edge[0] for edge in cycle}
        victim = max(cycle_txns, key=txn_seq)
        self.victims_chosen += 1
        for manager in managers:
            manager.kill_waiter(victim)
        return victim
