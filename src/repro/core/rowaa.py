"""The ROWAA interpretation of logical operations (§3.2).

Every user transaction implicitly reads its home site's copy of the
nominal session vector before any other operation; that view is used
throughout:

    READ(X)  = ∨ { read(x_k)  : x_k ∈ X and ns_i[k] ≠ 0 }
    WRITE(X) = ∧ { write(x_k) : x_k ∈ X and ns_i[k] ≠ 0 }

Each physical request carries ``ns_i[k]``; the target DM rejects on
mismatch with ``as[k]`` (implemented in
:class:`~repro.txn.data_manager.DataManager`). A read that hits an
unreadable copy redirects to the next candidate copy (§3.2 leaves
redirect-or-wait to the implementation; a read never blocks on a
copier).
"""

from __future__ import annotations

import typing

from repro.core.nominal import ns_item
from repro.errors import NetworkError, TotalFailure, TransactionError
from repro.txn.config import MAX_READ_ATTEMPTS

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.context import TxnContext


class RowaaStrategy:
    """Read-one/write-all-available with nominal session numbers."""

    name = "rowaa"

    # -- the implicit begin read (§3.2) ---------------------------------------

    def begin(self, ctx: "TxnContext") -> typing.Generator:
        """Read the local nominal session vector into ``ctx.view``.

        These are ordinary scheduled reads of the NS copies at the home
        site — S-locked under 2PL, timestamp-checked under TO — so they
        conflict with control transactions, which is what Theorem 3's
        proof leans on; but they are local: no network round trips,
        which is why the paper calls the overhead negligible (§6).

        The whole vector is materialised by one batched request — one
        snapshot per transaction rather than one physical operation per
        site. The DM walks the batch exactly as it would the per-site
        read sequence (same scheduling decisions, same history), under
        whichever scheduler it runs.
        """
        site_ids = ctx.tm.catalog.site_ids
        pairs = yield from ctx.dm_read_batch(
            ctx.tm.site_id, [ns_item(site_id) for site_id in site_ids]
        )
        for site_id, (value, _version) in zip(site_ids, pairs):
            ctx.view[site_id] = int(value)

    # -- logical operations ----------------------------------------------------

    def _read_candidates(self, ctx: "TxnContext", item: str) -> list[int]:
        home = ctx.tm.site_id
        sites = [
            site for site in ctx.tm.catalog.sites_of(item) if ctx.view.get(site, 0) != 0
        ]
        # The home copy first if resident (the paper's implied choice:
        # zero network cost), then lowest site id.
        return sorted(sites, key=lambda site: (site != home, site))

    def read(self, ctx: "TxnContext", item: str) -> typing.Generator:
        candidates = self._read_candidates(ctx, item)
        if not candidates:
            raise TotalFailure(item)
        last_error: Exception | None = None
        for site in candidates[:MAX_READ_ATTEMPTS]:
            try:
                value, _version = yield from ctx.dm_read(
                    site, item, expected=ctx.view[site]
                )
                return value
            except (NetworkError, TransactionError) as exc:  # CopyUnreadable included
                last_error = exc
        assert last_error is not None
        raise last_error

    def write(self, ctx: "TxnContext", item: str, value: object) -> typing.Generator:
        resident = ctx.tm.catalog.sites_of(item)
        targets = [
            (site, ctx.view[site]) for site in resident if ctx.view.get(site, 0) != 0
        ]
        if not targets:
            raise TotalFailure(item)
        missed = tuple(site for site in resident if ctx.view.get(site, 0) == 0)
        yield from ctx.dm_write_all(targets, item, value, missed_sites=missed)
        return None
