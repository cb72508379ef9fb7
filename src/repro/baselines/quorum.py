"""Quorum consensus (weighted majority voting, Gifford-style).

The classic availability yardstick for experiment E1: both reads and
writes need a majority of an item's copies, so each operation tolerates
⌈n/2⌉−1 copy failures — symmetric, but strictly worse write availability
than ROWAA (one live copy suffices there) and strictly worse read
availability than both ROWA variants.

No recovery machinery is needed: a rejoining site's stale copies are
out-voted by version comparison inside every read quorum, and the next
write through the site refreshes them. That simplicity is the scheme's
selling point; the cost is paid on every single operation instead.
"""

from __future__ import annotations

import typing

from repro.errors import NetworkError, TotalFailure, TransactionError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.context import TxnContext


def majority(n: int) -> int:
    return n // 2 + 1


class QuorumConsensus:
    """Read-quorum/write-quorum interpretation of logical operations:
    simple majority for both (r + w > n and w + w > n)."""

    name = "quorum"

    def begin(self, ctx: "TxnContext") -> typing.Generator:
        yield from ()

    def read(self, ctx: "TxnContext", item: str) -> typing.Generator:
        """Collect a read quorum; return the highest-version value."""
        resident = _home_first(ctx, item)
        needed = majority(len(resident))
        votes: list[tuple[object, object]] = []
        for site in resident:
            try:
                value, version = yield from ctx.dm_read(site, item, expected=None)
            except (NetworkError, TransactionError):
                continue
            votes.append((version, value))
            if len(votes) >= needed:
                break
        if len(votes) < needed:
            raise TotalFailure(item)
        _best_version, best_value = max(votes, key=lambda vote: vote[0])  # type: ignore[arg-type]
        return best_value

    def write(self, ctx: "TxnContext", item: str, value: object) -> typing.Generator:
        """Buffer the write at a write quorum of copies.

        The requests are the context's (one ``WriteRequest`` construction
        site, so the pipelined prepare vote and ``written_items`` are set
        like any other write); awaiting only a majority of the acks is
        this scheme's own algorithm.
        """
        resident = _home_first(ctx, item)
        needed = majority(len(resident))
        acked = 0
        failures = 0
        targets = [(site, None) for site in resident]
        for site, future in ctx.send_writes(targets, item, value):
            try:
                yield future
            except (NetworkError, TransactionError):
                failures += 1
                if failures > len(resident) - needed:
                    raise TotalFailure(item)
                continue
            ctx.write_acked(site)
            acked += 1
        if acked < needed:
            raise TotalFailure(item)
        return None


def _home_first(ctx: "TxnContext", item: str) -> list[int]:
    home = ctx.tm.site_id
    return sorted(
        ctx.tm.catalog.sites_of(item), key=lambda site: (site != home, site)
    )
