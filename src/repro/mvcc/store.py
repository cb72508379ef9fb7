"""Per-site committed version chains with snapshot-bounded GC.

The store subscribes to its site's :class:`~repro.storage.copies.CopyStore`
mutation stream (after the WAL): every committed apply ("write") and
every replay install ("install") appends to the item's chain, so live
commits and WAL restarts feed the same structure without the writer or
the replay path knowing multiversioning exists. Chains are ordered by
the version key ``(ts, commit)`` — the same total commit order the
single-version copies use.

Snapshot cuts
-------------

A read-only transaction reads at a *cut* ``(ts, 0)``: per item, the
newest chain version with key <= the cut. Two regimes pick the cut:

* **Current site** (operational, no unreadable marks): ``ts = now - D``
  where ``D`` (``RO_STALENESS_FLOOR``) upper-bounds the one-way delivery
  latency of commit messages. Every committed version decided before
  ``now - D`` has then been applied locally, so the cut is a consistent
  committed prefix of the global commit order — at the price of a
  staleness bound of ``D``.
* **Recovering / stale site** (not operational, or holding unreadable
  marks): the durable ``stale_cut``, advanced at restore to
  ``last_crash_time - D`` only when the pre-crash durable state shows
  the site was fully current (no unreadable marks survived in the
  checkpoint + log). Writes the site missed during the outage were all
  decided after that instant, so the versions below the cut are exactly
  the ones the site provably holds — this is what lets a recovering
  site answer snapshot reads while copiers drain its missing list.

Both cuts only ever grow, which keeps GC sound: the horizon is the
minimum of the current serving cut and every pinned snapshot, and a
sweep keeps, per chain, the newest version at-or-below the horizon (the
floor any pinned or future cut can still need) plus everything above it.
"""

from __future__ import annotations

import bisect
import typing

from repro.errors import SnapshotUnavailable
from repro.storage.copies import Version

#: A snapshot cut: the ``(ts, commit)`` prefix bound on version keys.
Cut = typing.Tuple[float, int]

#: ``D``, the snapshot staleness floor: a fully-current site serves
#: read-only transactions at the cut ``now - D``. Must upper-bound the
#: one-way delivery latency of COMMIT messages (see the module docstring).
RO_STALENESS_FLOOR = 2.0
#: Period of the background version-chain GC sweep.
GC_PERIOD = 50.0


def version_key(version: Version) -> Cut:
    """The commit-order key of a version (``seq`` is provenance only)."""
    return (version.ts, version.commit)


class VersionRecord:
    """One committed version of one item (hot record, slotted: sim.ns_per_event)."""

    __slots__ = ("version", "value")

    def __init__(self, version: Version, value: object) -> None:
        self.version = version
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VersionRecord {tuple(self.version)} {self.value!r}>"


class VersionChain:
    """The committed versions of one item at one site, oldest first."""

    __slots__ = ("item", "records", "keys")

    def __init__(self, item: str) -> None:
        self.item = item
        self.records: list[VersionRecord] = []
        self.keys: list[Cut] = []

    def __len__(self) -> int:
        return len(self.records)

    def insert(self, version: Version, value: object) -> bool:
        """Insert in key order; duplicates (same key) are ignored.

        Interior inserts happen: a copier write carries the original
        writer's version, and an in-doubt apply after a restart can land
        below versions a faster peer already shipped here.
        """
        key = version_key(version)
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return False
        self.keys.insert(index, key)
        self.records.insert(index, VersionRecord(version, value))
        return True

    def floor(self, cut: Cut) -> VersionRecord | None:
        """The newest record with key <= ``cut``; None if the chain has
        been truncated (or never reached) below the cut."""
        index = bisect.bisect_right(self.keys, cut)
        if index == 0:
            return None
        return self.records[index - 1]

    def versions(self) -> list[Version]:
        """The chain's versions, oldest first (the ``gc`` probe, tests)."""
        return [record.version for record in self.records]


class MvccStats:
    """Counters scraped by the ``mvcc.*`` metric collectors."""

    __slots__ = ("ro_served", "ro_served_stale", "gc_reclaimed", "gc_sweeps")

    def __init__(self) -> None:
        self.ro_served = 0
        #: Reads answered while this site was recovering or still held
        #: unreadable marks — the headline of E11.
        self.ro_served_stale = 0
        self.gc_reclaimed = 0
        self.gc_sweeps = 0


class MultiVersionStore:
    """Committed version chains for every copy at one site."""

    def __init__(self, kernel: typing.Any, site: typing.Any) -> None:
        self.kernel = kernel
        self.site = site
        #: Durable-safe cut while the site is not fully current; advanced
        #: only at restore (see :meth:`on_restore`) and persisted through
        #: WAL checkpoints.
        self.stale_cut = 0.0
        self._chains: dict[str, VersionChain] = {}
        #: The chains holding >= 2 versions — the only ones a sweep can
        #: reclaim from — in the order they got there (dict-as-set).
        self._multi: dict[str, None] = {}
        self._pins: dict[int, Cut] = {}
        self._pin_counter = 0
        #: Fault-injection switch for the audit suite: with pins ignored,
        #: a sweep can reclaim a pinned snapshot's floor version, which
        #: the auditor's ``mvcc.gc_pinned`` rule must catch.
        self.gc_respect_pins = True
        self._gc_proc: typing.Any = None
        self.stats = MvccStats()
        # Seed chains from the copies already installed (CopyStore.create
        # predates the store), then observe every later mutation.
        for item in site.copies.items():
            copy = site.copies.get(item)
            self._observe(item, copy.value, copy.version)
        site.copies.subscribers.append(self._on_copy_event)

    # -- chain maintenance ----------------------------------------------------

    def _on_copy_event(
        self, op: str, item: str | None, value: object, version: Version | None
    ) -> None:
        if op in ("write", "install"):
            assert item is not None and version is not None
            self._observe(item, value, version)
        elif op == "reset":
            # Restore path: chains rebuild from the checkpoint installs +
            # replay that follow, then :meth:`on_restore` merges the
            # checkpointed chain tails back in.
            self._chains.clear()
            self._multi.clear()
        # "mark" / "clear" move no version; a copy "create"d after this
        # store gets its chain with its first write.

    def _observe(self, item: str, value: object, version: Version) -> None:
        chain = self._chains.get(item)
        if chain is None:
            chain = self._chains[item] = VersionChain(item)
        chain.insert(version, value)
        if len(chain) == 2:
            self._multi[item] = None

    def chain(self, item: str) -> VersionChain | None:
        return self._chains.get(item)

    def versions_retained(self) -> int:
        return sum(len(chain) for chain in self._chains.values())

    # -- snapshot cuts --------------------------------------------------------

    def is_stale_serving(self) -> bool:
        """Whether snapshot reads here are currently fenced by the
        durable stale cut (recovering, or unreadable marks remain)."""
        return not self.site.is_operational or self.site.copies.unreadable_count() > 0

    def serving_cut(self) -> tuple[Cut, bool]:
        """The cut a read-only transaction beginning now reads at, and
        whether it is the stale (recovery) cut."""
        if self.is_stale_serving():
            return (self.stale_cut, 0), True
        return (max(0.0, self.kernel.now - RO_STALENESS_FLOOR), 0), False

    def read_at(self, item: str, cut: Cut) -> tuple[object, Version]:
        """Serve one snapshot read: the newest version with key <= cut."""
        chain = self._chains.get(item)
        record = chain.floor(cut) if chain is not None else None
        if record is None:
            raise SnapshotUnavailable(item, self.site.site_id, cut[0])
        return record.value, record.version

    # -- pins (snapshot lifetimes) --------------------------------------------

    def pin(self, cut: Cut) -> int:
        self._pin_counter += 1
        self._pins[self._pin_counter] = cut
        return self._pin_counter

    def release(self, pin_id: int) -> None:
        self._pins.pop(pin_id, None)

    def active_pins(self) -> int:
        return len(self._pins)

    # -- garbage collection ---------------------------------------------------

    def gc_horizon(self) -> Cut:
        """Keep-everything-above bound: the oldest cut any active pin —
        or any snapshot that could still begin — may read at."""
        horizon, _stale = self.serving_cut()
        if self.gc_respect_pins:
            for cut in self._pins.values():
                if cut < horizon:
                    horizon = cut
        return horizon

    def sweep(self) -> int:
        """One GC pass: :meth:`trim` at the current horizon, counted."""
        self.stats.gc_sweeps += 1
        reclaimed = self.trim(self.gc_horizon())
        self.stats.gc_reclaimed += reclaimed
        return reclaimed

    def trim(self, horizon: Cut) -> int:
        """Truncate every chain below ``horizon``, keeping the floor
        version each surviving cut still resolves to."""
        pins = tuple(sorted(self._pins.values()))
        reclaimed = 0
        for item in sorted(self._multi):
            chain = self._chains[item]
            index = bisect.bisect_right(chain.keys, horizon)
            if index <= 1:
                continue  # at most the floor sits at-or-below the horizon
            chain_before = chain.versions()
            removed = [record.version for record in chain.records[: index - 1]]
            del chain.records[: index - 1]
            del chain.keys[: index - 1]
            reclaimed += len(removed)
            if len(chain) == 1:
                del self._multi[item]
            # The chain's durable image is stale until the next checkpoint.
            self.site.wal.mark_dirty(item)
            # Per truncated chain: the removed Versions, the pinned cuts
            # active at sweep time, and the pre-sweep version list.
            for fn in self.kernel.probes.gc:
                fn(self.site.site_id, item, removed, pins, chain_before)
        return reclaimed

    def run_gc(self) -> typing.Generator:
        """Background sweep loop; spawn via ``site.spawn`` so it dies
        with a crash and restarts with the power-on hook."""
        while True:
            yield self.kernel.timeout(GC_PERIOD)
            self.sweep()

    def stop_gc(self) -> None:
        """Halt the periodic sweeps (lets ``kernel.run()`` drain) —
        same contract as ``DeadlockDetector.stop``."""
        if self._gc_proc is not None and self._gc_proc.is_alive:
            self._gc_proc.interrupt("stop")
        self._gc_proc = None

    def on_power_on(self) -> None:
        """Site power-on hook: restart the background GC sweep."""
        self._gc_proc = self.site.spawn(
            self.run_gc(), name=f"mvcc-gc[{self.site.site_id}]"
        )

    # -- WAL integration ------------------------------------------------------

    def chain_tail(self, item: str, version: Version) -> tuple:
        """The versions of ``item``'s chain other than ``version`` (the
        copy's own, which a restore re-seeds by installing the copy), as
        plain tuples — the mvcc part of the item's checkpoint image."""
        chain = self._chains.get(item)
        if chain is None:
            return ()
        own = (version.ts, version.commit)
        if chain.keys == [own]:
            return ()  # the common case, and most of a checkpoint's items
        return tuple(
            (rec.version.ts, rec.version.commit, rec.version.seq, rec.value)
            for rec, key in zip(chain.records, chain.keys)
            if key != own
        )

    def on_restore(
        self, cut: float, tails: typing.Iterable[tuple[str, tuple]]
    ) -> None:
        """Post-replay handoff from ``SiteWal.restore``.

        The reset/install hooks already rebuilt one-version chains from
        the item images plus replayed writes; this merges the
        checkpointed chain *tails* back in (interior inserts, idempotent)
        and re-derives the durable stale cut from the checkpointed
        ``cut``: advanced to ``last_crash_time - D`` only when no
        unreadable mark survived in the durable state — a crash
        mid-recovery keeps the older cut, which is conservative (more
        stale) but never inconsistent. Last, one :meth:`trim` at the
        restored horizon (the stale cut, unless a pin is older) takes
        back what replay restored of the versions a sweep had reclaimed
        since the checkpoint (DESIGN.md §8), counting none of them.
        """
        for item, records in tails:
            for ts, commit, seq, value in records:
                self._observe(item, value, Version(ts, commit, seq))
        self.stale_cut = cut
        if not self.site.copies.unreadable_count():
            crash_time = self.site.last_crash_time or 0.0
            self.stale_cut = max(cut, crash_time - RO_STALENESS_FLOOR, 0.0)
        self.trim(self.gc_horizon())

    # -- determinism digest ---------------------------------------------------

    def digest_state(self) -> tuple:
        """Canonical chain image for the crash-replay determinism gate."""
        return (
            self.stale_cut,
            tuple(
                (
                    item,
                    tuple(
                        (rec.version.ts, rec.version.commit, rec.version.seq,
                         rec.value)
                        for rec in self._chains[item].records
                    ),
                )
                for item in sorted(self._chains)
            ),
        )
