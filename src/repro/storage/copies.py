"""Versioned physical copies of logical data items at one site."""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.probes import Probes


class Version(typing.NamedTuple):
    """Total order on committed writes of a logical item.

    ``ts`` is the commit time of the writing transaction, ``commit`` a
    globally increasing commit sequence number assigned at the 2PC
    decision, and ``seq`` the *writer's* transaction sequence number
    (provenance, not ordering). The pair ``(ts, commit)`` orders versions
    by true commit order; ``ts`` alone is insufficient because two local
    transactions can decide within the same simulated instant, and writer
    sequence numbers do not follow commit order. The commit counter
    stands in for the Lamport/LSN component a real site would put in its
    version numbers.

    Copiers carry the source version across unchanged, which is what
    makes the §5 version-number optimisation ("compare the version
    numbers first, then decide whether copying data is necessary") and
    the §4 READ-FROM provenance sound.
    """

    ts: float
    commit: int
    seq: int = 0

    @classmethod
    def initial(cls) -> "Version":
        return cls(0.0, 0, 0)


@dataclasses.dataclass
class DataCopy:
    """One physical copy ``x_k`` of a logical item ``X``.

    ``unreadable`` is the §3.4 mark: set while the copy may have missed
    updates, cleared by a copier or by a committed user write.
    """

    item: str
    value: object
    version: Version = dataclasses.field(default_factory=Version.initial)
    unreadable: bool = False


class CopyStore:
    """The committed copies residing at one site.

    Only *committed* state is written here (the transaction machinery
    keeps uncommitted writes in per-transaction workspaces), so the store
    survives crashes by construction — matching a redo/no-undo stable
    database.

    The store owns the §3.4 marks: every write of ``DataCopy.unreadable``
    happens here, and ``_unreadable`` holds exactly the marked items, so
    "is anything still unreadable?" (asked per snapshot begin and per
    copier refresh) is a set-size read rather than a walk over all copies.
    """

    def __init__(self, site_id: int, probes: "Probes | None" = None) -> None:
        self.site_id = site_id
        #: Subscribers of the owning kernel's ``access`` probe (a race
        #: detector); a bare store outside any site has no bus.
        self._access: typing.Sequence[typing.Callable[..., None]] = (
            probes.access if probes is not None else ()
        )
        self._copies: dict[str, DataCopy] = {}
        self._unreadable: set[str] = set()
        self.bytes_copied = 0  # crude copier work counter (E5)
        #: The store's one mutation stream (wiring, not probes): each
        #: subscriber is called in subscription order as ``fn(op, item,
        #: value, version)``, op in {"write", "mark", "clear"} for a
        #: committed mutation, "create" for a new copy, or {"install",
        #: "reset"} for the restore path. The site's SiteWal subscribes
        #: first: it redo-journals the mutations and images a created
        #: copy at its next checkpoint; a multiversion store follows
        #: "write" / "install" / "reset". Duck-typed: storage imports
        #: neither wal nor mvcc.
        self.subscribers: list[typing.Callable[..., None]] = []

    # -- schema -------------------------------------------------------------

    def create(self, item: str, value: object = None) -> DataCopy:
        """Install the copy of ``item`` at this site."""
        if item in self._copies:
            raise KeyError(f"copy of {item} already exists at site {self.site_id}")
        copy = DataCopy(item=item, value=value)
        self._copies[item] = copy
        for fn in self.subscribers:
            fn("create", item, value, copy.version)
        return copy

    def has(self, item: str) -> bool:
        return item in self._copies

    def get(self, item: str) -> DataCopy:
        """The copy of ``item``; KeyError if this site holds none."""
        return self._copies[item]

    def items(self) -> typing.Iterable[str]:
        """Names of all items with a copy here."""
        return self._copies.keys()

    # -- committed mutations --------------------------------------------------

    def apply_write(self, item: str, value: object, version: Version) -> None:
        """Install a committed write; clears the unreadable mark (§3.2)."""
        if self._access:
            for fn in self._access:
                fn(self.site_id, ("copy", item), "write",
                   "CopyStore.apply_write", version)
        copy = self._copies[item]
        copy.value = value
        copy.version = version
        copy.unreadable = False
        self._unreadable.discard(item)
        for fn in self.subscribers:
            fn("write", item, value, version)

    def mark_unreadable(self, item: str) -> None:
        """Flag the copy as possibly stale (recovery step 2, §3.4)."""
        # A mark flip is a write to the same ``("copy", item)`` key as a
        # value install: a copier validating a copy races a user write
        # to it exactly like two value writes would.
        if self._access:
            for fn in self._access:
                fn(self.site_id, ("copy", item), "write",
                   "CopyStore.mark_unreadable")
        self._copies[item].unreadable = True
        self._unreadable.add(item)
        for fn in self.subscribers:
            fn("mark", item, None, None)

    def clear_unreadable(self, item: str) -> None:
        """Validate the copy without changing it (equal-version copier)."""
        if self._access:
            for fn in self._access:
                fn(self.site_id, ("copy", item), "write",
                   "CopyStore.clear_unreadable")
        self._copies[item].unreadable = False
        self._unreadable.discard(item)
        for fn in self.subscribers:
            fn("clear", item, None, None)

    def mark_all_unreadable(self) -> None:
        """The basic algorithm's conservative step 2: mark every copy."""
        self._unreadable.update(self._copies)
        for item, copy in self._copies.items():
            copy.unreadable = True
            for fn in self.subscribers:
                fn("mark", item, None, None)

    def unreadable_items(self) -> list[str]:
        """Items whose local copy is currently marked unreadable, in
        creation order (copier lanes are fanned out in this order)."""
        unreadable = self._unreadable
        return [name for name in self._copies if name in unreadable]

    def unreadable_count(self) -> int:
        """How many local copies are currently marked unreadable; O(1)."""
        return len(self._unreadable)

    def is_unreadable(self, item: str) -> bool:
        """True if this site holds a copy of ``item`` and it is marked."""
        return item in self._unreadable

    # -- restart reconstruction (repro.wal restore path) ----------------------

    def reset(self) -> None:
        """Drop every copy: the restore path rebuilds from checkpoint+log."""
        self._copies.clear()
        self._unreadable.clear()
        for fn in self.subscribers:
            fn("reset", None, None, None)

    def install(
        self, item: str, value: object, version: Version, unreadable: bool = False
    ) -> DataCopy:
        """Install/overwrite a copy with explicit full state (replay only:
        unlike :meth:`apply_write`, this sets the mark rather than
        clearing it and is never journaled by the caller)."""
        if self._access:
            for fn in self._access:
                fn(self.site_id, ("copy", item), "write",
                   "CopyStore.install", version)
        copy = self._copies.get(item)
        if copy is None:
            copy = self._copies[item] = DataCopy(item=item, value=value)
        copy.value = value
        copy.version = version
        copy.unreadable = unreadable
        if unreadable:
            self._unreadable.add(item)
        else:
            self._unreadable.discard(item)
        for fn in self.subscribers:
            fn("install", item, value, version)
        return copy
