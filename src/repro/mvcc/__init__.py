"""Multiversion snapshot reads: lock-free read-only transactions.

The subsystem behind ``beginRO`` (see DESIGN.md "Snapshot reads"):

* :class:`~repro.mvcc.store.MultiVersionStore` — per-site committed
  version chains layered over :class:`~repro.storage.copies.CopyStore`
  as one more subscriber of its mutation stream (writers and the WAL
  replay path are untouched), with snapshot-bounded garbage collection.
* :class:`~repro.mvcc.snapshot.SnapshotManager` — assigns each
  read-only transaction a consistent committed cut, pins it against GC,
  and surfaces the staleness bound.

Read-only transactions take no locks, run no 2PC, and never participate
in deadlocks; a recovering site answers them from the versions it
provably holds while copiers drain its missing list.
"""

from repro.mvcc.snapshot import Snapshot, SnapshotManager
from repro.mvcc.store import MultiVersionStore, MvccStats, VersionChain

__all__ = [
    "MultiVersionStore",
    "MvccStats",
    "Snapshot",
    "SnapshotManager",
    "VersionChain",
]
