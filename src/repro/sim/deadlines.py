"""Fixed-length deadlines that share one armed kernel entry per owner.

An RPC node arms an ``rpc_timeout`` deadline per call and a data manager
a ``DECISION_TIMEOUT`` deadline per participation, and almost every one
is disarmed long before it falls due. A kernel timer per deadline would
keep a heap entry per call in flight; a :class:`DeadlineQueue` keeps the
deadlines of one owner and one delay in a FIFO instead — a fixed delay
makes FIFO order deadline order — and arms only its head.

The queue is order-exact: an entry takes, when added, the kernel seq its
own timer would have taken (:meth:`Kernel.reserve_seq`) and is armed at
exactly that ``(time, seq)`` (:meth:`Kernel.schedule_at`). A fired entry
handles only itself and arms the next live entry at that entry's own
``(time, seq)``, so every live expiry is dispatched where its own timer
would have been. What the sharing costs: one wake-up per armed entry
that was cancelled before it fell due, which arms the next live one.
"""

from __future__ import annotations

import collections
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Callback, Kernel


class Deadline:
    """One entry of a :class:`DeadlineQueue`: due at ``(when, seq)``."""

    __slots__ = ("when", "seq", "args", "live")

    def __init__(self, when: float, seq: int, args: tuple[object, ...]) -> None:
        self.when = when
        self.seq = seq
        self.args = args
        self.live = True

    def cancel(self) -> None:
        """Disarm: the queue's expiry handler will never see this entry."""
        self.live = False


class DeadlineQueue:
    """The deadlines of one owner and one ``delay``; ``expire(*args)`` runs
    for each that falls due live, in the kernel event its own timer
    would have had.

    :meth:`clear` (the owner stopped) forgets every entry; an entry added
    after it is armed afresh, never behind an entry from before it.
    """

    __slots__ = ("kernel", "delay", "expire", "_queue", "_armed")

    def __init__(
        self, kernel: "Kernel", delay: float, expire: typing.Callable[..., None]
    ) -> None:
        if delay <= 0:
            raise ValueError(f"a deadline needs a positive delay, got {delay}")
        self.kernel = kernel
        self.delay = delay
        self.expire = expire
        self._queue: collections.deque[Deadline] = collections.deque()
        #: The kernel entry armed for the queue's head, live or cancelled;
        #: None while the queue is empty.
        self._armed: "Callback | None" = None

    def __len__(self) -> int:
        """Entries held, cancelled ones not yet dropped included."""
        return len(self._queue)

    def add(self, *args: object) -> Deadline:
        """A deadline ``delay`` from now, for ``expire(*args)``."""
        kernel = self.kernel
        entry = Deadline(kernel.now + self.delay, kernel.reserve_seq(), args)
        self._queue.append(entry)
        if self._armed is None:
            self._arm(entry)
        return entry

    def clear(self) -> None:
        """Forget every entry and disarm."""
        self._queue.clear()
        if self._armed is not None:
            self._armed.cancel()
            self._armed = None

    def _arm(self, entry: Deadline) -> None:
        self._armed = self.kernel.schedule_at(entry.when, entry.seq, self._fire, entry)

    def _fire(self, entry: Deadline) -> None:
        queue = self._queue
        queue.popleft()  # ``entry``: only the head is ever armed
        while queue and not queue[0].live:
            queue.popleft()
        # Arm the successor before expiring: an ``expire`` that adds an
        # entry must find the queue armed, or its new entry would be
        # armed ahead of older live ones.
        if queue:
            self._arm(queue[0])
        else:
            self._armed = None
        if entry.live:
            entry.live = False
            self.expire(*entry.args)
