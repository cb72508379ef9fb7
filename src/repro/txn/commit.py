"""Commit strategies: how a TM terminates a writing transaction.

Two implementations of the :class:`~repro.txn.strategy.CommitStrategy`
seam, selected by ``TxnConfig.commit_mode``:

* :class:`Sync2pcCommit` — the baseline presumed-abort 2PC: a prepare
  round to every write site, the logged decision, a commit round, and
  only then the client ack. Client latency is two sequential RPC rounds
  past the write-all.

* :class:`AsyncQuorumCommit` — the SCAR-style minimal-coordination fast
  path. The prepare phase is *pipelined into the write round*: every
  async-mode write request carries ``prepare=True``, so the DM journals
  the intent durably (WAL group commit) and votes yes in the same ack
  the write-all already waits for. At the commit point the coordinator
  checks the quorum rule — for every written item, a majority of the
  item's resident copies must be prepared — forces the decision to the log,
  acks the client immediately, and *drains* the ``dm.commit`` applies in
  a background process. Client latency is the write-all round alone.

Why pipelined prepare is a sound yes-vote: by the time the write-all
returns, every write site holds the X lock and the buffered intent under
strict 2PL; the only way a participant can renege is a crash, which is
exactly what the quorum rule, the durable prepare records (in-doubt
re-arming, :meth:`repro.txn.data_manager.DataManager._on_power_on`) and
the recovery marks cover. Deadlock victims are aborted globally by the
coordinator *before* any decision, so a vote is never withdrawn
unilaterally.

Why acking before the applies preserves one-serializability: laggards
still hold their X locks until the drained apply lands, so no reader can
observe a pre-commit value after the client was acked; a drained site
that crashes instead is fenced by ``as[k] = 0`` and recovers the write
via the normal marks + ``wal.ship`` catch-up.
"""

from __future__ import annotations

import typing

from repro.errors import NetworkError, TransactionAborted, TransactionError
from repro.txn.payloads import CommitRequest, PrepareRequest
from repro.txn.transaction import Transaction, TxnStatus

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.context import TxnContext
    from repro.txn.manager import TransactionManager

_COMMITTED = TxnStatus.COMMITTED  # a global load, not a class lookup, per commit


def quorum_needed(catalog, txn: Transaction, write_sites: list[int]) -> int:
    """The §"Commit modes" quorum rule: the decision needs, for every
    written item, a majority of the item's resident copies prepared.

    Collapsed to a single threshold: the largest per-item majority,
    capped at the write-set size (a write-all that reached every
    nominally-up resident cannot be asked for more sites than it has).
    """
    needed = 1
    for item in txn.written_items:
        residents = catalog.sites_of(item)
        if residents:
            needed = max(needed, len(residents) // 2 + 1)
    return min(needed, len(write_sites))


class Sync2pcCommit:
    """Presumed-abort 2PC, client acked after the commit round."""

    name = "sync_2pc"

    def __init__(self, tm: "TransactionManager") -> None:
        self.tm = tm

    def commit(
        self,
        ctx: "TxnContext",
        write_sites: list[int],
        read_only_sites: list[int],
        span,
    ) -> typing.Generator:
        tm = self.tm
        txn = ctx.txn
        txn.commit_mode = self.name
        span_parent = span.span_id if span is not None else None
        prepare = PrepareRequest(txn_id=txn.txn_id, participants=tuple(write_sites))
        votes = tm.rpc.call_many(
            write_sites, "dm.prepare", prepare, timeout=tm.config.rpc_timeout,
            span_parent=span_parent,
        )
        all_yes = True
        for _site_id, future in votes:
            try:
                vote = yield future
            except (NetworkError, TransactionError):
                vote = False
            all_yes = all_yes and bool(vote)

        if not all_yes:
            yield from tm._abort(ctx, TransactionError("prepare phase failed"))
            raise TransactionAborted(txn.txn_id, "prepare-failed")

        version = tm.decide_version(txn)
        tm._finish(txn, _COMMITTED, version)
        acks = tm.rpc.call_many(
            write_sites, "dm.commit", CommitRequest(txn.txn_id, version),
            timeout=tm.config.rpc_timeout, span_parent=span_parent,
        )
        for site_id in read_only_sites:
            ctx.release_site(site_id)
        acked: list[int] = []
        lost: list[int] = []
        for site_id, future in acks:
            try:
                yield future
                acked.append(site_id)
            except (NetworkError, TransactionError):
                # The decision is final; the miss is counted and the
                # acked sites' stale trackers are told about it so the
                # lost site's recovery marks the copies.
                tm.stats.commit_ack_lost += 1
                lost.append(site_id)
        if lost:
            tm.mark_missed(txn, lost, acked)
        else:  # every write site acked: forget it (DESIGN.md §6, item 3)
            tm.site.wal.decided.pop(txn.txn_id, None)


class AsyncQuorumCommit:
    """Quorum decision at the write-all ack; applies drained asynchronously."""

    name = "async_quorum"

    def __init__(self, tm: "TransactionManager") -> None:
        self.tm = tm

    def commit(
        self,
        ctx: "TxnContext",
        write_sites: list[int],
        read_only_sites: list[int],
        span,
    ) -> typing.Generator:
        tm = self.tm
        txn = ctx.txn
        txn.commit_mode = self.name
        txn.quorum_needed = quorum_needed(tm.catalog, txn, write_sites)
        # Every user write goes through ``TxnContext.send_writes``, so
        # each write site's ack was also its durable prepare vote and
        # the quorum wait was absorbed by the write round; a short count
        # can only be a corrupted transaction record, and aborts.
        prepared = txn.prepared_sites & set(write_sites)
        if len(prepared) < txn.quorum_needed:
            yield from tm._abort(ctx, TransactionError("quorum prepare failed"))
            raise TransactionAborted(txn.txn_id, "prepare-failed")
        if span is not None:
            tm.site.obs.spans.annotate(
                span, prepared=len(prepared), needed=txn.quorum_needed,
                quorum_pipelined=True,
            )
        # The commit point: the decision is forced into the log inside
        # _finish before any COMMIT message leaves this site, then the
        # client is acked — the applies happen in the drain process.
        version = tm.decide_version(txn)
        tm._finish(txn, _COMMITTED, version)
        tm.stats.async_commits += 1
        tm.spawn_drain(ctx, write_sites, read_only_sites, version)
