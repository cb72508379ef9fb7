"""The replication catalog: which sites hold a copy of which item."""

from __future__ import annotations

import random
import typing


class Catalog:
    """Immutable-after-construction map of logical items to resident sites.

    The paper assumes "the information regarding where the copies of data
    item X are located is available at least at the resident sites of X"
    (§2); we make the catalog globally readable, which is the common
    implementation and does not interact with the recovery protocol.
    """

    def __init__(self, site_ids: typing.Sequence[int]) -> None:
        if not site_ids:
            raise ValueError("catalog requires at least one site")
        self.site_ids: tuple[int, ...] = tuple(sorted(site_ids))
        self._placement: dict[str, tuple[int, ...]] = {}

    # -- construction -----------------------------------------------------------

    def add_item(self, item: str, sites: typing.Sequence[int]) -> None:
        """Declare that ``item`` has a copy at each site in ``sites``."""
        if item in self._placement:
            raise ValueError(f"item {item!r} already in catalog")
        sites = tuple(sorted(set(sites)))
        if not sites:
            raise ValueError(f"item {item!r} needs at least one copy")
        unknown = [s for s in sites if s not in self.site_ids]
        if unknown:
            raise ValueError(f"item {item!r} placed at unknown sites {unknown}")
        self._placement[item] = sites

    @classmethod
    def fully_replicated(
        cls, site_ids: typing.Sequence[int], items: typing.Iterable[str]
    ) -> "Catalog":
        """Every item at every site."""
        catalog = cls(site_ids)
        for item in items:
            catalog.add_item(item, catalog.site_ids)
        return catalog

    @classmethod
    def random_placement(
        cls,
        site_ids: typing.Sequence[int],
        items: typing.Iterable[str],
        replication: int,
        rng: random.Random,
    ) -> "Catalog":
        """Each item at ``replication`` distinct sites chosen uniformly."""
        catalog = cls(site_ids)
        if not 1 <= replication <= len(catalog.site_ids):
            raise ValueError(
                f"replication {replication} out of range for {len(catalog.site_ids)} sites"
            )
        for item in items:
            catalog.add_item(item, rng.sample(catalog.site_ids, replication))
        return catalog

    # -- queries ------------------------------------------------------------------

    def items(self) -> typing.Iterable[str]:
        return self._placement.keys()

    def __contains__(self, item: str) -> bool:
        return item in self._placement

    def sites_of(self, item: str) -> tuple[int, ...]:
        """The resident sites of ``item``; KeyError if unknown."""
        return self._placement[item]

    def items_at(self, site_id: int) -> list[str]:
        """All items with a copy at ``site_id``."""
        return [item for item, sites in self._placement.items() if site_id in sites]

