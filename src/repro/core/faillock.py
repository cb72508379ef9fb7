"""Fail-locks (§5, citing Bhargava's working paper [5]).

A fail-lock is "the notion that the data item is being updated when a
site is down": when a committed write skips site *k* (because *k* was
nominally down), every site that applied the write records the pair
``(item, k)``. A recovering site *k* collects the fail-locks set during
its failure from the operational sites, marks exactly those copies
unreadable, and clears the collected entries.

Design decision (documented in DESIGN.md): our fail-lock tables live in
*stable* storage. The cited working paper is not explicit; volatility
would lose entries when a tracker site itself crashes, silently
unmarking genuinely stale copies under multiple failures. Stability plus
the conservative residency rule below restores soundness:

    mark X unreadable iff a collected fail-lock names (X, me), **or**
    some other resident site of X is currently not operational (its
    table — possibly the only one naming us — is unreachable).
"""

from __future__ import annotations

import typing

from repro.core.config import RECOVERY_PROBE_TIMEOUT
from repro.core.nominal import is_ns_item
from repro.errors import NetworkError
from repro.site.site import Site

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.recovery import RecoveryManager

_STABLE_KEY = "faillocks"

CollectRequest = int  # the recovering site's id
ClearRequest = tuple[int, tuple[str, ...]]  # (site, items whose entries to drop)


class FailLockPolicy:
    """Tracker + recovery policy for the fail-lock mechanism."""

    name = "fail-locks"
    needs_post_announce_pass = True

    def __init__(self, site: Site) -> None:
        self.site = site
        self._reached: list[int] = []
        #: Volatile mirror of the stable table: loaded on first use after
        #: a power-on, dropped by a crash, written through on every change.
        self._mirror: set[tuple[str, int]] | None = None
        site.rpc.register("faillock.collect", self._handle_collect)
        site.rpc.register("faillock.clear", self._handle_clear)
        site.crash_hooks.append(self._drop_mirror)

    # -- stable table access ------------------------------------------------

    def _table(self) -> set[tuple[str, int]]:
        if self._mirror is None:
            stored = typing.cast(tuple, self.site.stable.get(_STABLE_KEY, ()))
            self._mirror = set(stored)
        return self._mirror

    def _store(self, table: set[tuple[str, int]]) -> None:
        # A sorted tuple: plain data, and bytes that no hash seed moves.
        self.site.stable.put(_STABLE_KEY, tuple(sorted(table)))

    def _drop_mirror(self) -> None:
        self._mirror = None

    def entries(self) -> set[tuple[str, int]]:
        """Current fail-locks at this site (copies elsewhere known stale)."""
        return set(self._table())

    # -- tracker half -------------------------------------------------------------

    def on_commit_write(
        self,
        item: str,
        applied_sites: tuple[int, ...],
        missed_sites: tuple[int, ...],
        value: object = None,
        version: object = None,
    ) -> None:
        table = self._table()
        for missed in missed_sites:
            table.add((item, missed))
        # The copies just written are current again; stale markers about
        # them at this site are obsolete.
        for applied in applied_sites:
            table.discard((item, applied))
        self._store(table)

    # -- RPC handlers (tracker side) ---------------------------------------------

    def _handle_collect(self, recovering: CollectRequest, src: int) -> list[str]:
        return sorted(item for item, site_id in self._table() if site_id == recovering)

    def _handle_clear(self, request: ClearRequest, src: int) -> bool:
        recovering, items = request
        table = self._table()
        for item in items:
            table.discard((item, recovering))
        self._store(table)
        return True

    # -- recovery half ----------------------------------------------------------------

    def collect_stale(self, manager: "RecoveryManager") -> typing.Generator:
        me = self.site.site_id
        stale: set[str] = set()
        self._reached: list[int] = []
        for site_id in manager.operational_peers():
            try:
                items = yield manager.rpc.call(
                    site_id,
                    "faillock.collect",
                    me,
                    timeout=RECOVERY_PROBE_TIMEOUT,
                )
            except NetworkError:
                continue
            self._reached.append(site_id)
            stale.update(items)  # type: ignore[arg-type]

        # Conservative residency rule: a resident site we could not ask
        # might hold the only fail-lock naming us.
        reached_set = set(self._reached) | {me}
        for item in self.site.copies.items():
            if is_ns_item(item):
                continue
            for resident in manager.catalog.sites_of(item):
                if resident not in reached_set:
                    stale.add(item)
                    break
        # Sorted: the stale list drives marking and copier scheduling
        # order, so set-hash order here would be run-to-run nondeterminism.
        return sorted(item for item in stale if self.site.copies.has(item))

    def after_marked(
        self, manager: "RecoveryManager", items: typing.Sequence[str]
    ) -> typing.Generator:
        """Take responsibility: clear collected entries once marks are on.

        Fire and forget — a lost clear only costs a future spurious mark.
        """
        yield from ()
        me = self.site.site_id
        for site_id in self._reached:
            manager.rpc.call(site_id, "faillock.clear", (me, tuple(sorted(items))))
        return None
