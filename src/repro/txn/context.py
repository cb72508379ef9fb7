"""Per-transaction execution context handed to transaction programs."""

from __future__ import annotations

import typing

from repro.errors import NetworkError, TotalFailure, TransactionError
from repro.sim.events import Future
from repro.storage.copies import Version
from repro.txn.config import MAX_READ_ATTEMPTS
from repro.txn.payloads import (
    BatchReadRequest,
    FinishRequest,
    ReadRequest,
    SnapshotReadRequest,
    WriteRequest,
)
from repro.txn.transaction import Transaction, TxnKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mvcc.snapshot import Snapshot
    from repro.txn.manager import TransactionManager

_USER = TxnKind.USER  # a global load, not a class lookup, per transaction


class TxnContext:
    """What a transaction program sees.

    User programs call the *logical* operations :meth:`read` and
    :meth:`write` (strategy-interpreted, per §2); protocol-internal
    transactions (control, copier) use the physical-level ``dm_*``
    helpers directly.

    All operation methods are generator functions: invoke them with
    ``yield from`` inside a transaction program.
    """

    def __init__(self, tm: "TransactionManager", txn: Transaction) -> None:
        self.tm = tm
        self.txn = txn
        self.view: dict[int, int] = txn.view  # site -> nominal session seen
        #: Pipelined 2PC: under ``async_quorum``, every user-transaction
        #: write carries a prepare vote (the ack doubles as phase one).
        self.prepare_on_write = tm.prepare_on_write and txn.kind is _USER

    # -- logical operations (user programs) ------------------------------------

    def read(self, item: str) -> typing.Generator:
        """Logical READ(item) via the replication strategy."""
        return self.tm.strategy.read(self, item)

    def write(self, item: str, value: object) -> typing.Generator:
        """Logical WRITE(item, value) via the replication strategy."""
        return self.tm.strategy.write(self, item, value)

    def read_many(self, items: typing.Sequence[str]) -> typing.Generator:
        """Logical READs of ``items``, returning values in order.

        Mirrors :meth:`ReadOnlyTxnContext.read_many` so the same program
        body runs under either path — that is how the E11 lock-based
        baseline replays the snapshot workload through ordinary 2PL.
        """
        values = []
        for item in items:
            value = yield from self.read(item)
            values.append(value)
        return values

    def read_first(self, sites: typing.Sequence[int], item: str) -> typing.Generator:
        """Read-one with failover: try the copy of ``item`` at each of
        ``sites`` in order (at most ``MAX_READ_ATTEMPTS`` of them) and
        return the first value served; the last refusal propagates.

        The session-less read of the baselines — ROWAA's read owns its
        own loop (it carries ``ns_i[k]`` and the wait-for-copier fork).
        """
        last_error: Exception | None = None
        for site in sites[:MAX_READ_ATTEMPTS]:
            try:
                value, _version = yield from self.dm_read(site, item, expected=None)
                return value
            except (NetworkError, TransactionError) as exc:
                last_error = exc
        raise last_error if last_error is not None else TotalFailure(item)

    # -- physical operations -------------------------------------------------

    def _call(self, site_id: int, kind: str, request: object) -> Future:
        """Send one physical operation to the DM at ``site_id`` (which the
        transaction has then touched), parented to its root span."""
        self.txn.touched_sites.add(site_id)
        return self.tm.rpc.call(
            site_id, kind, request, timeout=self.tm.config.rpc_timeout,
            span_parent=self.txn.span_id,
        )

    def dm_read(
        self,
        site_id: int,
        item: str,
        expected: int | None = None,
        privileged: bool = False,
        peek_unreadable: bool = False,
    ) -> typing.Generator:
        """Read the copy of ``item`` at ``site_id``; returns (value, version)."""
        request = ReadRequest(
            txn_id=self.txn.txn_id,
            txn_seq=self.txn.seq,
            kind=self.txn.kind.value,
            item=item,
            expected=expected,
            privileged=privileged,
            peek_unreadable=peek_unreadable,
        )
        reply = yield self._call(site_id, "dm.read", request)
        return reply

    def dm_read_batch(
        self,
        site_id: int,
        items: typing.Sequence[str],
        expected: int | None = None,
        privileged: bool = False,
    ) -> typing.Generator:
        """Read several copies at ``site_id`` in one round trip.

        Returns a list of ``(value, version)`` pairs in ``items`` order;
        semantically one :meth:`dm_read` per item (same locks, checks and
        history records), minus the per-item RPC cost.
        """
        request = BatchReadRequest(
            txn_id=self.txn.txn_id,
            txn_seq=self.txn.seq,
            kind=self.txn.kind.value,
            items=tuple(items),
            expected=expected,
            privileged=privileged,
        )
        reply = yield self._call(site_id, "dm.read_batch", request)
        return reply

    def dm_write(
        self,
        site_id: int,
        item: str,
        value: object,
        expected: int | None = None,
        privileged: bool = False,
        version_override: Version | None = None,
        applied_sites: tuple[int, ...] = (),
        missed_sites: tuple[int, ...] = (),
    ) -> typing.Generator:
        """Buffer a write of ``item`` at ``site_id`` (applied at commit)."""
        yield from self._await_all(self.send_writes(
            ((site_id, expected),), item, value, privileged,
            version_override, applied_sites, missed_sites,
        ))

    def dm_write_all(
        self,
        targets: typing.Sequence[tuple[int, int | None]],
        item: str,
        value: object,
        privileged: bool = False,
        version_override: Version | None = None,
        missed_sites: tuple[int, ...] = (),
    ) -> typing.Generator:
        """Fan a write out to ``targets`` (pairs of site id and expected
        session) in parallel; succeeds only if every target acks.

        The first failure aborts the wait and propagates (write-all
        semantics: "OP fails if any one of the op's fails", §2).
        """
        applied_sites = tuple(site_id for site_id, _expected in targets)
        for fn in self.tm.kernel.probes.logical_write:
            fn(self.tm.site_id, self.txn.txn_id, item, applied_sites)
        yield from self._await_all(self.send_writes(
            targets, item, value, privileged,
            version_override, applied_sites, missed_sites,
        ))

    def send_writes(
        self,
        targets: typing.Sequence[tuple[int, int | None]],
        item: str,
        value: object,
        privileged: bool = False,
        version_override: Version | None = None,
        applied_sites: tuple[int, ...] = (),
        missed_sites: tuple[int, ...] = (),
    ) -> list[tuple[int, Future]]:
        """Issue one ``dm.write`` per target — the one construction site
        of :class:`WriteRequest` — and return the ``(site, ack)`` pairs.

        How the acks are awaited is the caller's algorithm (all of them:
        :meth:`_await_all`; a majority: the quorum baseline); each ack
        that arrives is reported through :meth:`write_acked`.
        """
        self.txn.written_items.add(item)
        futures = []
        for site_id, expected in targets:
            request = WriteRequest(
                txn_id=self.txn.txn_id,
                txn_seq=self.txn.seq,
                kind=self.txn.kind.value,
                item=item,
                value=value,
                expected=expected,
                privileged=privileged,
                version_override=version_override,
                applied_sites=applied_sites,
                missed_sites=missed_sites,
                prepare=self.prepare_on_write,
            )
            futures.append((site_id, self._call(site_id, "dm.write", request)))
        return futures

    def write_acked(self, site_id: int) -> None:
        """A ``dm.write`` was acked by ``site_id``: it is a write site,
        and under pipelined 2PC the ack was also its prepare vote."""
        self.txn.wrote_sites.add(site_id)
        if self.prepare_on_write:
            self.txn.prepared_sites.add(site_id)

    def _await_all(self, futures: list[tuple[int, Future]]) -> typing.Generator:
        for site_id, future in futures:
            yield future
            self.write_acked(site_id)

    def release_site(self, site_id: int) -> None:
        """Fire-and-forget lock release at one site (no reply awaited)."""
        self.tm.rpc.call(
            site_id, "dm.release", FinishRequest(self.txn.txn_id),
            span_parent=self.txn.span_id,
        )


class ReadOnlyTxnContext:
    """What a ``beginRO`` (snapshot-read) transaction program sees.

    All reads resolve at the home site's multiversion store against the
    snapshot's pinned cut — no locks, no replication strategy, no 2PC.
    The context exposes the snapshot's explicit :attr:`staleness_bound`
    so a client knows how old its view may be (essential when a
    recovering site serves it).
    """

    def __init__(
        self, tm: "TransactionManager", txn: Transaction, snapshot: "Snapshot"
    ) -> None:
        self.tm = tm
        self.txn = txn
        self.snapshot = snapshot

    @property
    def staleness_bound(self) -> float:
        """Max age of this transaction's view at begin time: every commit
        decided before ``begin - staleness_bound`` is visible."""
        return self.snapshot.staleness

    @property
    def served_stale(self) -> bool:
        """True when the home site was recovering (or held unreadable
        copies) at begin time and served the durable stale cut."""
        return self.snapshot.stale

    def read(self, item: str) -> typing.Generator:
        """Snapshot READ(item); returns the value (``ctx.read`` contract)."""
        values = yield from self.read_many([item])
        return values[0]

    def read_many(self, items: typing.Sequence[str]) -> typing.Generator:
        """Read several items at the snapshot cut in one round trip.

        Returns values in ``items`` order. The whole batch is served in
        one synchronous step at the DM, so it is trivially fracture-free.
        """
        reply = yield from self.read_versioned(items)
        return [value for value, _version in reply]

    def read_versioned(self, items: typing.Sequence[str]) -> typing.Generator:
        """Like :meth:`read_many` but returns ``(value, version)`` pairs
        (tests and the auditor's cross-checks use the versions)."""
        request = SnapshotReadRequest(
            txn_id=self.txn.txn_id,
            txn_seq=self.txn.seq,
            items=tuple(items),
            cut_ts=self.snapshot.cut[0],
            cut_commit=self.snapshot.cut[1],
        )
        self.txn.touched_sites.add(self.tm.site_id)
        reply = yield self.tm.rpc.call(
            self.tm.site_id, "dm.read_snapshot", request,
            timeout=self.tm.config.rpc_timeout, span_parent=self.txn.span_id,
        )
        return list(reply)

    def write(self, item: str, value: object) -> typing.Generator:
        """Read-only transactions cannot write; always raises."""
        raise TransactionError(
            f"{self.txn.txn_id} is read-only: cannot write {item}"
        )
        yield  # pragma: no cover - keeps the generator contract
