"""An unbounded FIFO queue connecting simulated processes."""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Future

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class Queue:
    """FIFO of items with future-based ``get``.

    ``put`` never blocks (the queue is unbounded); ``get`` returns a
    future that succeeds with the next item, waking waiters in FIFO
    order. A site's network inbox is not one of these: it has a single
    consumer, drained by a callback (:class:`repro.net.network.Endpoint`).
    """

    __slots__ = ("kernel", "name", "_get_name", "_items", "_getters")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._get_name = f"get({name})"  # precomputed: get() is a hot path
        self._items: collections.deque[object] = collections.deque()
        self._getters: collections.deque[Future] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Append ``item``; delivers immediately to a waiting getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:  # skip cancelled waiters
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Future:
        """Return a future for the next item.

        If the waiting process is interrupted away before an item arrives,
        the getter is forgotten (see :meth:`Future.on_abandoned`) so it
        cannot swallow an item meant for a later consumer.
        """
        future = Future(self.kernel, name=self._get_name)
        if self._items:
            future.succeed(self._items.popleft())
        else:
            self._getters.append(future)
            future.on_abandoned(self._forget_getter)
        return future

    def _forget_getter(self, future: Future) -> None:
        try:
            self._getters.remove(future)
        except ValueError:
            pass

    def clear(self) -> None:
        """Drop all queued items."""
        self._items.clear()
