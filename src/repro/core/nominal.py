"""Nominal session numbers as replicated data items (§3.1).

``NS[k]`` is the session number of site *k* as perceived by the system.
Because they are "read very frequently (by user transactions) but only
updated occasionally (when sites fail and recover)", the paper assumes
full replication at all n sites; we follow that. The copies live in the
ordinary per-site :class:`~repro.storage.copies.CopyStore` under the
reserved names ``NS[1]..NS[n]``, so all reads and writes of nominal
session numbers go through the normal DM path — locks, session checks
where applicable, 2PC — exactly as the paper requires ("under
concurrency control like other data items").
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.copies import CopyStore

_PREFIX = "NS["
_SUFFIX = "]"


def ns_item(site_id: int) -> str:
    """The logical item name for site ``site_id``'s nominal session number."""
    return f"{_PREFIX}{site_id}{_SUFFIX}"


def is_ns_item(item: str) -> bool:
    """True for nominal-session-number items (used to scope §4 checks)."""
    return item.startswith(_PREFIX) and item.endswith(_SUFFIX)


def ns_site(item: str) -> int:
    """Inverse of :func:`ns_item`; raises ValueError on other items."""
    if not is_ns_item(item):
        raise ValueError(f"{item!r} is not a nominal session number item")
    return int(item[len(_PREFIX) : -len(_SUFFIX)])


def unreadable_db_count(copies: "CopyStore", site_ids: typing.Iterable[int]) -> int:
    """Unreadable copies of the user database (DB, excluding NS) in ``copies``.

    The store's O(1) mark count less the marked ``NS[k]`` copies, so the
    cost is one lookup per site rather than one per item.
    """
    marked_ns = sum(1 for site_id in site_ids if copies.is_unreadable(ns_item(site_id)))
    return copies.unreadable_count() - marked_ns


def db_item_filter(item: str) -> bool:
    """Item filter selecting the user database (DB, excluding NS)."""
    return not is_ns_item(item)
