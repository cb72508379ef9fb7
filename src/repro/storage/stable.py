"""Stable (crash-surviving) key-value storage for a site."""

from __future__ import annotations

import pickle
import typing


class StableStorage:
    """A per-site key-value store that survives crashes.

    In the simulation a crash simply *does not touch* this object, while
    all volatile structures (lock tables, transaction workspaces, inboxes)
    are discarded. Writes are modeled as atomic, matching the paper's
    assumption that the current session number "must also be saved in a
    stable storage" (§3.1).

    Values cross a serialization boundary (pickle) on both :meth:`put`
    and :meth:`get`: what is persisted is a byte snapshot, so mutating an
    object after ``put`` cannot silently alter "stable" state, and two
    ``get`` calls never alias each other. This also yields an honest
    byte count (:attr:`bytes_written`) for stable-write cost accounting,
    instead of just a write *counter*.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self.writes = 0  # counts stable writes, for cost accounting
        self.bytes_written = 0  # serialized bytes persisted across all puts

    def put(self, key: str, value: object) -> int:
        """Atomically persist ``value`` under ``key``; returns blob size."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._blobs[key] = blob
        self.writes += 1
        self.bytes_written += len(blob)
        return len(blob)

    def get(self, key: str, default: object = None) -> object:
        """Read (a private copy of) the persisted value, or ``default``."""
        blob = self._blobs.get(key)
        if blob is None:
            return default
        return pickle.loads(blob)

    def size_of(self, key: str) -> int:
        """Serialized size in bytes of the value under ``key`` (0 if absent)."""
        blob = self._blobs.get(key)
        return len(blob) if blob is not None else 0

    def delete(self, key: str) -> None:
        """Remove ``key`` if present."""
        self._blobs.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._blobs

    def keys(self) -> typing.KeysView[str]:
        """Every persisted key, in first-put order (a re-put keeps its
        place): the WAL restore's prefix scan reinstalls item images in
        the order their copies were created."""
        return self._blobs.keys()
