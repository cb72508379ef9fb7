"""Strict read-one/write-all (§2 of the paper).

WRITE(X) must reach *every* copy of X, available or not, so "site
failures never result in inconsistent data" and database recovery is
unnecessary — at the price that a single down replica blocks all writers
of the item. This is the correctness-without-availability endpoint of
the design space that experiment E1 contrasts ROWAA against.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.context import TxnContext


class StrictROWA:
    """READ = any one copy; WRITE = all copies, no exceptions."""

    name = "strict-rowa"

    def begin(self, ctx: "TxnContext") -> typing.Generator:
        yield from ()

    def read(self, ctx: "TxnContext", item: str) -> typing.Generator:
        home = ctx.tm.site_id
        sites = sorted(
            ctx.tm.catalog.sites_of(item), key=lambda site: (site != home, site)
        )
        return ctx.read_first(sites, item)

    def write(self, ctx: "TxnContext", item: str, value: object) -> typing.Generator:
        targets = [(site, None) for site in ctx.tm.catalog.sites_of(item)]
        yield from ctx.dm_write_all(targets, item, value)
        return None
