"""The broken scheme of the paper's §1 example.

"Write operations are interpreted as writing to all currently available
copies and transactions can be committed as long as all write operations
succeed" — with availability judged per-operation from the local failure
detector and **no** session numbers, directories, or other conventions.

This is intentionally unsound: two transactions can each miss the other's
writes across a crash and still commit, producing a non-one-serializable
execution. Experiment E8 regenerates exactly the paper's counter-example
with it. It is also the *overhead floor* used by E3: any correct scheme's
extra cost is measured against this one.
"""

from __future__ import annotations

import typing

from repro.errors import TotalFailure

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.site.cluster import Cluster
    from repro.txn.context import TxnContext


class NaiveAvailableCopies:
    """Per-operation available-copies with no recovery conventions."""

    name = "naive-available-copies"

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def begin(self, ctx: "TxnContext") -> typing.Generator:
        """No view to establish — availability is judged per operation."""
        yield from ()

    def _believed_up(self, ctx: "TxnContext", item: str) -> list[int]:
        detector = self.cluster.detector(ctx.tm.site_id)
        home = ctx.tm.site_id
        sites = [
            site for site in ctx.tm.catalog.sites_of(item) if detector.believes_up(site)
        ]
        # Prefer the local copy, then lowest site id: deterministic and cheap.
        return sorted(sites, key=lambda site: (site != home, site))

    def read(self, ctx: "TxnContext", item: str) -> typing.Generator:
        return ctx.read_first(self._believed_up(ctx, item), item)

    def write(self, ctx: "TxnContext", item: str, value: object) -> typing.Generator:
        targets = self._believed_up(ctx, item)
        if not targets:
            raise TotalFailure(item)
        yield from ctx.dm_write_all([(site, None) for site in targets], item, value)
        return None
