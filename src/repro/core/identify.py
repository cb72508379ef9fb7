"""Identifying out-of-date copies at recovery (§3.4 step 2, §5).

The basic algorithm "simply assumes that all data at the recovering site
are out-of-date"; the §5 refinements track precisely which copies missed
updates so recovery marks (and copiers later refresh) only those. The
algorithm "can choose many different methods":

* :class:`MarkAllPolicy` — the conservative baseline, with no table;
* :class:`StaleTracker` with ``durable=True`` — fail-locks (§5, citing
  Bhargava's working paper [5]), and the spooled redo of §1 (Hammer &
  Shipman [6]), which replays the values the table keeps; the table is
  journaled in the site's redo log;
* :class:`StaleTracker` with ``durable=False`` — missing lists (§5).

A policy is a *collect* step run by the recovering site to compute the
items to repair, and a cleanup (:meth:`after_marked`) once the repairs
are durable. Soundness requirement: every item that missed a committed
update during the outage must be collected (over-approximation is
allowed and costs only copier work — experiment E5 measures exactly
that).
"""

from __future__ import annotations

import typing

from repro.core.config import RECOVERY_PROBE_TIMEOUT
from repro.core.nominal import is_ns_item
from repro.errors import NetworkError
from repro.site.site import Site
from repro.storage.copies import DataCopy

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.recovery import RecoveryManager

#: ``(value, (ts, commit, seq))`` of the newest write a copy missed; the
#: version is ``None`` when that write is unknown — a miss reported
#: without it (``dm.mark_missed``), or a copy only the residency rule
#: suspects — so the copy can be marked but not replayed.
Entry = tuple[object, "tuple | None"]


class MarkAllPolicy:
    """§3.4's conservative default: every local copy may be stale.

    Nominal-session items are exempt — the type-1 control transaction
    refreshes them before any user transaction can run at this site.
    Marking everything up front, it needs no delta pass: no write
    committed during the recovery window can slip through unmarked.
    """

    def collect_stale(self, manager: "RecoveryManager") -> typing.Generator:
        yield from ()
        return [
            item
            for item in manager.site.copies.items()
            if not is_ns_item(item)
        ]

    def after_marked(
        self, manager: "RecoveryManager", items: typing.Iterable[str]
    ) -> typing.Generator:
        yield from ()
        return None


def _supersedes(new: tuple | None, old: tuple | None) -> bool:
    """Keep the newest missed write; an unknown version wins for good."""
    return old is not None and (new is None or old < new)


def _covers(copy: DataCopy) -> tuple | None:
    """What a repaired copy makes obsolete: every entry (``None``) once
    it is marked — a copier will fetch the newest value — else entries
    no newer than its version, as after a replay."""
    return None if copy.unreadable else tuple(copy.version)


class StaleTracker:
    """The §5 table: one entry per ``(item, missed site)``.

    Every site that applies a committed write records, for each copy the
    write skipped, the newest ``(value, version)`` that missed it; a
    write that reaches a copy drops the entries about it ("removes (X,
    i) ... adds (X, j)", §5). Fail-locks and missing lists read only the
    keys; the spooler replays the values.

    ``durable`` decides what a crash costs. A durable table (fail-locks,
    the spooler) is the WAL's :attr:`~repro.wal.wal.SiteWal.stale_table`:
    each change is one ``stale`` / ``unstale`` redo record, durable when
    the call that made it returns (a commit's records ride its group
    flush), and restart rebuilds it from checkpoint + log. A volatile
    one (missing lists, "in volatile storage only") is lost by a crash,
    and its recovery re-seeds it from the peers' entries naming other
    sites and stamps :attr:`valid_since`. A recovering
    site then marks X when a resident of X could not be asked, or when
    its table has been complete only since *after* our outage began (it
    may have lost entries naming us). A durable table's ``valid_since``
    stays 0, so the second rule never fires for it.
    """

    def __init__(self, site: Site, durable: bool) -> None:
        self.site = site
        self.durable = durable
        #: Since when this table holds every miss it was told of.
        self.valid_since = 0.0
        #: The peers the last collection asked.
        self._reached: list[int] = []
        #: The table when it is volatile; a crash drops it.
        self._entries: dict[tuple[str, int], Entry] = {}
        site.rpc.register("stale.collect", self._handle_collect)
        site.rpc.register("stale.clear", self._handle_clear)
        site.crash_hooks.append(self._drop)

    def _table(self) -> dict[tuple[str, int], Entry]:
        return self.site.wal.stale_table if self.durable else self._entries

    def _drop(self) -> None:
        self._entries = {}

    def entries(self) -> dict[tuple[str, int], Entry]:
        """A copy of this site's table: copies elsewhere known stale."""
        return dict(self._table())

    # -- tracker half (fed by the DM at every committed write) -----------------

    def on_commit_write(
        self,
        item: str,
        applied_sites: tuple[int, ...],
        missed_sites: tuple[int, ...],
        value: object = None,
        version: tuple | None = None,
    ) -> None:
        table = self._table()
        if version is not None:
            version = tuple(version)  # a bare triple
        stale = []
        for missed in missed_sites:
            held = table.get((item, missed))
            if held is None or _supersedes(version, held[1]):
                table[(item, missed)] = (value, version)
                stale.append(missed)
        # The copies just written are current again.
        unstale = [site for site in applied_sites if table.pop((item, site), None) is not None]
        if self.durable:
            if stale:
                self.site.wal.log_stale(item, tuple(stale), value=value, version=version)
            if unstale:
                self.site.wal.log_stale(item, applied=tuple(unstale))

    # -- RPC handlers (tracker side) -----------------------------------------------

    def _handle_collect(self, recovering: int, src: int) -> tuple:
        """Read-only: (the ``(item, value, version)`` rows naming the
        recovering site, every other key, :attr:`valid_since`). Entries
        go only by ``stale.clear``, once the recovering site's repairs
        are durable — a crash between the two must not lose them."""
        table = self._table()
        mine = [(item, *table[(item, site)]) for item, site in sorted(table) if site == recovering]
        others = sorted(key for key in table if key[1] != recovering)
        return mine, others, self.valid_since

    def _handle_clear(self, request: tuple[int, tuple], src: int) -> bool:
        """Drop the entries the recovering site's repairs cover (see
        :func:`_covers`), as a write reaching the copy would; one a newer
        miss has replaced since stays, for the delta pass to repair."""
        recovering, collected = request
        table = self._table()
        for item, version in collected:
            held = table.get((item, recovering))
            if held is not None and not _supersedes(held[1], version):
                self.on_commit_write(item, (recovering,), ())
        if self.durable:
            self.site.wal.flush()
        return True

    # -- recovery half -----------------------------------------------------------------

    def collect_stale(self, manager: "RecoveryManager") -> typing.Generator:
        """Return ``{item: entry}`` for the local copies to repair, by item."""
        me = self.site.site_id
        down_since = manager.session.session_started_at or 0.0
        found: dict[str, Entry] = {}
        inherited: list[tuple[str, int]] = []
        reached: dict[int, float] = {}
        for site_id in manager.operational_peers():
            try:
                mine, others, valid_since = yield manager.rpc.call(
                    site_id, "stale.collect", me, timeout=RECOVERY_PROBE_TIMEOUT,
                )
            except NetworkError:
                continue
            reached[site_id] = valid_since
            for item, value, version in mine:
                held = found.get(item)
                if held is None or _supersedes(version, held[1]):
                    found[item] = (value, version)
            inherited.extend(tuple(key) for key in others)

        # Residency rule: a resident we could not ask, or whose table is
        # younger than our outage, may hold the only — or the newest —
        # entry naming us.
        for item in self.site.copies.items():
            if is_ns_item(item):
                continue
            for resident in manager.catalog.sites_of(item):
                if resident != me and reached.get(resident, float("inf")) > down_since:
                    found[item] = (None, None)
                    break

        if not self.durable:
            self._entries = dict.fromkeys(inherited, (None, None))
            self.valid_since = manager.kernel.now
        self._reached = list(reached)
        # Sorted: the stale set drives marking and copier scheduling
        # order, so set-hash order here would be run-to-run nondeterminism.
        return {item: found[item] for item in sorted(found) if self.site.copies.has(item)}

    def after_marked(
        self, manager: "RecoveryManager", items: typing.Iterable[str]
    ) -> typing.Generator:
        """Drop the collected entries at the peers asked, now that the
        repairs are durable. Fire and forget — a lost clear only costs a
        future spurious mark."""
        yield from ()
        copies = self.site.copies
        request = (self.site.site_id, tuple((item, _covers(copies.get(item))) for item in items))
        for site_id in self._reached:
            manager.rpc.call(site_id, "stale.clear", request)
        return None


IdentificationPolicy = typing.Union[MarkAllPolicy, StaleTracker]
