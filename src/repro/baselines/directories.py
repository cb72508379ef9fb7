"""Directory-oriented available copies (Bernstein & Goodman [2]).

Each data item X has a *directory* DIR[X] — itself a replicated data
item — listing the sites whose copy of X is currently available. User
transactions read the local directory copy to interpret their logical
operations; directories are changed only by *status transactions*:
EXCLUDE removes a crashed site from one item's directory, INCLUDE brings
one recovered copy back (refreshing it from an available copy first).
Everything is synchronized by ordinary 2PL, which is how user
transactions get a consistent per-item view.

Contrast with the paper (its §1 discussion and our E2/E7):

* status is tracked per *item*, so a crash triggers one EXCLUDE per
  affected item and a recovery runs one INCLUDE per resident copy — the
  control traffic and the resume latency scale with the database size,
  versus O(#sites) nominal session numbers;
* the recovering site accepts user transactions only after *all* its
  INCLUDEs commit, versus immediately after the single type-1.

Simplifications vs the full [2] machinery (documented): directories are
fully replicated and status transactions write the copies at sites the
initiator's failure detector believes up; the INCLUDE pass also
refreshes the recovering site's directory copies.

This baseline is written as a centralized driver class that spawns the
per-site EXCLUDE/INCLUDE reactions *at* the owning site (``site.spawn``
ties them to that site's crash lifecycle) and reads only that site's
local copies — code organization, not protocol reach-through, hence the
file-level REP003 waiver below.
"""
# replint: disable-file=REP003

from __future__ import annotations

import dataclasses
import typing

from repro.errors import NetworkError, TotalFailure, TransactionAborted, TransactionError
from repro.sim.kernel import Kernel
from repro.storage.catalog import Catalog
from repro.system import DatabaseSystem
from repro.txn.transaction import TxnKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.context import TxnContext

#: Backoff before retrying an aborted EXCLUDE or INCLUDE transaction.
RETRY_DELAY = 10.0


def dir_item(item: str) -> str:
    """The directory item name for ``item``."""
    return f"DIR[{item}]"


def is_dir_item(item: str) -> bool:
    return item.startswith("DIR[") and item.endswith("]")


class DirectoryAvailableCopies:
    """User-transaction interpretation: consult DIR[X] for each item."""

    name = "directories"

    def begin(self, ctx: "TxnContext") -> typing.Generator:
        yield from ()

    def _members(self, ctx: "TxnContext", item: str) -> typing.Generator:
        home = ctx.tm.site_id
        value, _version = yield from ctx.dm_read(home, dir_item(item), expected=None)
        return tuple(value)  # type: ignore[arg-type]

    def read(self, ctx: "TxnContext", item: str) -> typing.Generator:
        members = yield from self._members(ctx, item)
        if not members:
            raise TotalFailure(item)
        home = ctx.tm.site_id
        ordered = sorted(members, key=lambda site: (site != home, site))
        return (yield from ctx.read_first(ordered, item))

    def write(self, ctx: "TxnContext", item: str, value: object) -> typing.Generator:
        members = yield from self._members(ctx, item)
        if not members:
            raise TotalFailure(item)
        yield from ctx.dm_write_all([(site, None) for site in members], item, value)
        return None


@dataclasses.dataclass
class DirectoryRecoveryRecord:
    """Timeline of one directory-scheme recovery (E2 metrics)."""

    site_id: int
    power_on_at: float
    operational_at: float | None = None
    includes_committed: int = 0
    include_attempts: int = 0

    @property
    def time_to_operational(self) -> float | None:
        if self.operational_at is None:
            return None
        return self.operational_at - self.power_on_at


class DirectoryService:
    """Status transactions (EXCLUDE/INCLUDE) and recovery for one system."""

    def __init__(self, system: "DatabaseSystem") -> None:
        self.system = system
        self.exclude_committed = 0
        self.exclude_aborted = 0
        self.records: list[DirectoryRecoveryRecord] = []
        for site_id in system.cluster.site_ids:
            system.cluster.detector(site_id).on_down(
                lambda crashed, me=site_id: self._on_down(me, crashed)
            )

    # -- EXCLUDE ----------------------------------------------------------------

    def _on_down(self, observer: int, crashed: int) -> None:
        site = self.system.cluster.site(observer)
        if not site.is_operational:
            return
        for item in self.system.catalog.items_at(crashed):
            if is_dir_item(item):
                continue  # a directory has no directory of its own
            site.spawn(
                self._exclude_loop(observer, item, crashed),
                name=f"exclude:{item}:{crashed}",
            )

    def _exclude_loop(self, observer: int, item: str, crashed: int) -> typing.Generator:
        system = self.system
        site = system.cluster.site(observer)
        for _attempt in range(10):
            if not site.is_operational:
                return
            members = site.copies.get(dir_item(item)).value
            if crashed not in members:  # type: ignore[operator]
                return
            if system.cluster.detector(observer).believes_up(crashed):
                return  # recovered meanwhile
            program = self._exclude_program(observer, item, crashed)
            try:
                yield from system.tms[observer].run(program, kind=TxnKind.CONTROL)
                self.exclude_committed += 1
                return
            except TransactionAborted:
                self.exclude_aborted += 1
                yield system.kernel.timeout(RETRY_DELAY)

    def _exclude_program(self, home: int, item: str, crashed: int):
        system = self.system

        def program(ctx: "TxnContext") -> typing.Generator:
            value, _version = yield from ctx.dm_read(
                home, dir_item(item), privileged=True
            )
            members = tuple(value)  # type: ignore[arg-type]
            if crashed not in members:
                return False
            new_members = tuple(site for site in members if site != crashed)
            detector = system.cluster.detector(home)
            targets = [
                (site, None)
                for site in system.cluster.site_ids
                if detector.believes_up(site) and site != crashed
            ]
            yield from ctx.dm_write_all(
                targets, dir_item(item), new_members, privileged=True
            )
            return True

        return program

    # -- INCLUDE / recovery ---------------------------------------------------------

    def recover(self, site_id: int):
        """Power the site on and run the INCLUDE pass; returns the process."""
        system = self.system
        system.cluster.power_on_site(site_id)
        record = DirectoryRecoveryRecord(
            site_id=site_id, power_on_at=system.kernel.now
        )
        self.records.append(record)
        return system.cluster.site(site_id).spawn(
            self._recover_body(site_id, record), name="dir-recovery"
        )

    def _recover_body(
        self, site_id: int, record: DirectoryRecoveryRecord
    ) -> typing.Generator:
        system = self.system
        # One INCLUDE per resident item; each also refreshes the local
        # directory copy. Non-resident items' directories are refreshed
        # too so local reads route correctly.
        for item in sorted(system.catalog.items()):
            if is_dir_item(item):
                continue
            resident = site_id in system.catalog.sites_of(item)
            while True:
                record.include_attempts += 1
                program = self._include_program(site_id, item, resident)
                try:
                    yield from system.tms[site_id].run(program, kind=TxnKind.CONTROL)
                except TransactionAborted:
                    yield system.kernel.timeout(RETRY_DELAY)
                    continue
                record.includes_committed += 1
                break
        system.cluster.site(site_id).become_operational()
        system.cluster.notify_recovered(site_id)
        record.operational_at = system.kernel.now
        return record

    def _include_program(self, me: int, item: str, resident: bool):
        system = self.system

        def program(ctx: "TxnContext") -> typing.Generator:
            source = yield from self._find_live_peer(ctx, me)
            value, dir_version = yield from ctx.dm_read(
                source, dir_item(item), privileged=True
            )
            members = tuple(value)  # type: ignore[arg-type]
            if not resident:
                # Just refresh our directory copy (copier-style write).
                yield from ctx.dm_write(
                    me, dir_item(item), members, privileged=True,
                    version_override=dir_version,  # type: ignore[arg-type]
                )
                return members
            # Refresh the data copy from an available member.
            copy_value = copy_version = None
            for peer in sorted(members):
                if peer == me:
                    continue
                try:
                    copy_value, copy_version = yield from ctx.dm_read(
                        peer, item, privileged=True
                    )
                    break
                except (NetworkError, TransactionError):
                    continue
            if copy_version is not None:
                yield from ctx.dm_write(
                    me, item, copy_value, privileged=True,
                    version_override=copy_version,  # type: ignore[arg-type]
                )
            elif members and set(members) - {me}:
                raise TotalFailure(item)
            # Announce availability: me joins the directory everywhere up.
            new_members = tuple(sorted(set(members) | {me}))
            detector = system.cluster.detector(me)
            targets = [
                (site, None)
                for site in system.cluster.site_ids
                if detector.believes_up(site) or site == me
            ]
            yield from ctx.dm_write_all(
                targets, dir_item(item), new_members, privileged=True
            )
            return new_members

        return program

    def _find_live_peer(self, ctx: "TxnContext", me: int) -> typing.Generator:
        yield from ()
        detector = self.system.cluster.detector(me)
        for site_id in self.system.cluster.site_ids:
            if site_id != me and detector.believes_up(site_id):
                return site_id
        raise TotalFailure("no live peer for directory recovery")


def build_directory_items(
    items: dict[str, object], catalog_sites: dict[str, tuple[int, ...]]
) -> dict[str, object]:
    """Initial values for DIR items: every copy available at boot."""
    return {dir_item(name): tuple(catalog_sites[name]) for name in items}


class DirectorySystem(DatabaseSystem):
    """Available copies with per-item directories (+ status service)."""

    def __init__(
        self,
        kernel: Kernel,
        n_sites: int,
        items: dict[str, object],
        catalog: Catalog | None = None,
        **kwargs: typing.Any,
    ) -> None:
        site_ids = list(range(1, n_sites + 1))
        if catalog is None:
            catalog = Catalog(site_ids)
            for item in items:
                catalog.add_item(item, site_ids)
        placement = {item: catalog.sites_of(item) for item in items}
        all_items = dict(items)
        all_items.update(build_directory_items(items, placement))
        for item in items:
            catalog.add_item(dir_item(item), site_ids)  # directories everywhere
        super().__init__(
            kernel,
            n_sites,
            all_items,
            strategy_factory=lambda _system: DirectoryAvailableCopies(),
            catalog=catalog,
            **kwargs,
        )
        self.directory_service = DirectoryService(self)

    def power_on(self, site_id: int):
        """Recover via the per-item INCLUDE pass."""
        return self.directory_service.recover(site_id)
