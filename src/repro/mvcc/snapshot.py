"""Snapshot lifetimes for read-only transactions at one site.

``beginRO`` goes through the :class:`SnapshotManager`: it asks the
site's :class:`~repro.mvcc.store.MultiVersionStore` for the current
serving cut, pins that cut against garbage collection, and hands the
transaction a :class:`Snapshot` carrying the explicit staleness bound
(`kernel.now - cut`) the client is promised. Releasing the snapshot
(commit or abort, in ``finally``) drops the pin so GC can advance.
"""

from __future__ import annotations

import typing

from repro.mvcc.store import Cut, MultiVersionStore


class Snapshot:
    """One read-only transaction's pinned, consistent committed cut."""

    __slots__ = ("pin_id", "cut", "taken_at", "staleness", "stale")

    def __init__(
        self, pin_id: int, cut: Cut, taken_at: float, stale: bool
    ) -> None:
        self.pin_id = pin_id
        self.cut = cut
        self.taken_at = taken_at
        #: The explicit bound surfaced to the client: every read in this
        #: transaction reflects all commits decided before
        #: ``taken_at - staleness``.
        self.staleness = taken_at - cut[0]
        #: True when the serving site was recovering (or still held
        #: unreadable copies) at begin time — the cut is then the durable
        #: stale cut rather than the rolling ``now - D`` floor.
        self.stale = stale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "stale" if self.stale else "current"
        return f"<Snapshot cut={self.cut} staleness={self.staleness:g} {mode}>"


class SnapshotManager:
    """Assigns and releases snapshots for one site's ``beginRO`` path."""

    def __init__(
        self, kernel: typing.Any, site: typing.Any, store: MultiVersionStore
    ) -> None:
        self.kernel = kernel
        self.site = site
        self.store = store
        self.begun = 0
        self._age = site.obs.registry.histogram(
            "mvcc.snapshot_age", site.site_id
        )

    def begin(self) -> Snapshot:
        """Pin and return the snapshot a ``beginRO`` reads at."""
        cut, stale = self.store.serving_cut()
        pin_id = self.store.pin(cut)
        snapshot = Snapshot(pin_id, cut, self.kernel.now, stale)
        self.begun += 1
        self._age.observe(snapshot.staleness)
        return snapshot

    def release(self, snapshot: Snapshot) -> None:
        """Unpin; idempotent (release twice is a no-op)."""
        self.store.release(snapshot.pin_id)

    def active(self) -> int:
        return self.store.active_pins()
