"""The transaction manager (TM): supervises transaction execution (§2).

The TM at a site runs each transaction as a simulated process:

1. gate by transaction class (user transactions only at operational
   sites; control transactions also while recovering — §3.3);
2. let the replication strategy establish the transaction's view
   (for ROWAA: the implicit read of the local nominal session vector);
3. drive the user program, whose logical operations the strategy
   interprets into physical DM requests;
4. terminate via presumed-abort two-phase commit over the written sites.

Any protocol-level failure (session mismatch, deadlock victim, copy
unreadable after redirects, RPC timeout, vote no) aborts the transaction
and surfaces as :class:`~repro.errors.TransactionAborted` carrying the
reason — callers and the experiment harness classify aborts by it.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.errors import (
    NetworkError,
    NotOperational,
    TransactionAborted,
    TransactionError,
)
from repro.histories.recorder import HistoryRecorder
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.site.site import Site
from repro.storage.catalog import Catalog
from repro.storage.copies import Version
from repro.txn.commit import AsyncQuorumCommit, Sync2pcCommit
from repro.txn.config import COMMIT_MODES, TxnConfig
from repro.txn.context import ReadOnlyTxnContext, TxnContext
from repro.txn.payloads import (
    CommitRequest,
    FinishRequest,
    MarkMissedRequest,
    OutcomeQuery,
)
from repro.txn.strategy import CommitStrategy, ReplicationStrategy
from repro.txn.transaction import Transaction, TxnKind, TxnStatus, next_commit_seq

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mvcc import SnapshotManager

TxnProgram = typing.Callable[[TxnContext], typing.Generator]

#: Enum members as module names: a global load where ``TxnKind.USER`` is
#: a class attribute lookup (≈ 80 ns on 3.11), on every transaction.
_USER = TxnKind.USER
_COMMITTED = TxnStatus.COMMITTED
_ABORTED = TxnStatus.ABORTED

#: Exceptions that abort the transaction (vs. programming errors, which
#: propagate unchanged so they surface as bugs).
ABORT_CAUSES = (TransactionError, NetworkError)

#: Extra ``dm.commit`` attempts the async drain makes per lagging site
#: before giving the site up to recovery marks.
DRAIN_RETRIES = 1
#: Pause between drain retry rounds.
DRAIN_RETRY_DELAY = 10.0


@dataclasses.dataclass
class TmStats:
    """Per-TM counters for the experiment harness."""

    committed: int = 0
    aborted: int = 0
    refused: int = 0  # user txns refused because the site was not operational
    aborts_by_reason: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )
    commit_latencies: list[float] = dataclasses.field(default_factory=list)
    #: Begin-to-client-ack latency per committed user transaction: unlike
    #: ``commit_latencies`` (begin to decision), this includes whatever
    #: the commit strategy keeps on the client path — the full 2PC tail
    #: under sync_2pc, only the quorum check under async_quorum.
    ack_latencies: list[float] = dataclasses.field(default_factory=list)
    #: Final-decision notifications lost to a participant (previously
    #: swallowed silently); recovery marks cover each miss, but an
    #: async-drain backlog must be observable, not invisible.
    commit_ack_lost: int = 0
    abort_ack_lost: int = 0
    async_commits: int = 0  # decisions taken under async_quorum
    drains_spawned: int = 0
    drains_completed: int = 0
    #: Read-only (``beginRO``) transactions, counted apart from the RW
    #: numbers above: they take no locks and never enter 2PC, so mixing
    #: them into ``committed`` would flatter every RW latency statistic.
    ro_committed: int = 0
    ro_aborted: int = 0
    ro_refused: int = 0  # submitted while the site was down
    ro_latencies: list[float] = dataclasses.field(default_factory=list)


class TransactionManager:
    """One site's TM."""

    def __init__(
        self,
        kernel: Kernel,
        site: Site,
        catalog: Catalog,
        strategy: ReplicationStrategy,
        recorder: HistoryRecorder,
        config: TxnConfig,
    ) -> None:
        self.kernel = kernel
        self.site = site
        self.catalog = catalog
        self.strategy = strategy
        self.recorder = recorder
        self.config = config
        self.stats = TmStats()
        #: "commit" (default): versions order by 2PC decision instant —
        #: correct for 2PL, where conflict order equals commit order.
        #: "timestamp": versions order by transaction timestamp — the
        #: serialization order of the TO scheduler
        #: (:mod:`repro.txn.timestamp`).
        self.version_policy: str = "commit"
        if config.commit_mode not in COMMIT_MODES:
            raise ValueError(
                f"unknown commit_mode {config.commit_mode!r}; one of {COMMIT_MODES}"
            )
        #: The commit seam (see :class:`repro.txn.strategy.CommitStrategy`).
        #: User transactions use ``config.commit_mode``; control and
        #: copier transactions always terminate synchronously.
        self.commit_strategies: dict[str, CommitStrategy] = {
            Sync2pcCommit.name: Sync2pcCommit(self),
            AsyncQuorumCommit.name: AsyncQuorumCommit(self),
        }
        #: The site's :class:`~repro.mvcc.snapshot.SnapshotManager`, None
        #: until :meth:`snapshot_manager` builds it.
        self.snapshots: "SnapshotManager | None" = None
        self._active: set[str] = set()
        site.rpc.register("tm.outcome", self._handle_outcome)
        site.crash_hooks.append(self._on_crash)

    @property
    def site_id(self) -> int:
        return self.site.site_id

    @property
    def rpc(self):
        return self.site.rpc

    @property
    def prepare_on_write(self) -> bool:
        """Pipelined 2PC: user-transaction writes carry a prepare vote."""
        return self.config.commit_mode == AsyncQuorumCommit.name

    # -- crash semantics ----------------------------------------------------

    def _on_crash(self) -> None:
        self._active.clear()

    def _handle_outcome(self, query: OutcomeQuery, src: int) -> tuple[str, Version | None]:
        """Active, else the logged decision, else presumed abort.

        "aborted" is right for every transaction without a decision in
        ``wal.decided``: a commit with writes is logged *before any
        COMMIT message is sent* (see :meth:`_finish`), and forgotten
        only once every write site has acknowledged it, when no
        participant can still ask (DESIGN.md §6). A commit without
        writes has no record and is answered "aborted" too, which is its
        outcome at every participant: a reader's locks are released the
        same way by either decision.
        """
        if query.txn_id in self._active:
            return ("active", None)
        committed = self.site.wal.decided.get(query.txn_id)
        if committed is not None:
            return ("committed", committed)
        return ("aborted", None)

    # -- public API -----------------------------------------------------------

    def submit(self, program: TxnProgram, kind: TxnKind = TxnKind.USER) -> Process:
        """Run ``program`` as a transaction in its own process.

        The returned process succeeds with the program's return value or
        fails with :class:`TransactionAborted` (or the original exception
        for non-protocol bugs). The process dies silently if the site
        crashes mid-flight — in-doubt state is cleaned up by participant
        termination.
        """
        return self.site.spawn(self.run(program, kind), name=f"txn:{kind.value}")

    def submit_ro(self, program: typing.Callable) -> Process:
        """Run ``program`` as a read-only snapshot transaction (``beginRO``).

        The program receives a
        :class:`~repro.txn.context.ReadOnlyTxnContext` and reads at one
        pinned committed snapshot: no locks, no 2PC, no deadlock
        participation. Unlike :meth:`submit`, a RECOVERING home site is
        allowed — it serves the versions it provably holds (the durable
        stale cut) while copiers drain its missing list.
        """
        return self.site.spawn(self.run_ro(program), name="txn:ro")

    def run_ro(
        self, program: typing.Callable, parent_span: int | None = None
    ) -> typing.Generator:
        """Read-only transaction body (see :meth:`submit_ro`)."""
        if self.site.is_down or self.version_policy != "commit":
            # Snapshot reads require 2PL (DESIGN.md §8, refused combinations).
            self.stats.ro_refused += 1
            raise NotOperational(self.site_id)
        txn = Transaction(
            home_site=self.site_id, kind=_USER, read_only=True,
            start_time=self.kernel.now,
        )
        obs = self.site.obs
        if obs.spans_on:
            txn.span = obs.spans.start(
                f"txn:{txn.txn_id}", _USER.value, self.site_id,
                parent=parent_span, txn_id=txn.txn_id,
            )
            obs.spans.annotate(txn.span, read_only=True)
        snapshots = self.snapshot_manager()
        snapshot = snapshots.begin()
        ctx = ReadOnlyTxnContext(self, txn, snapshot)
        self._active.add(txn.txn_id)
        try:
            try:
                result = yield from program(ctx)
            except ABORT_CAUSES as exc:
                self._finish_ro(txn, _ABORTED, reason=_reason_of(exc))
                raise TransactionAborted(txn.txn_id, _reason_of(exc)) from exc
            except BaseException:
                if not txn.is_finished:
                    self._finish_ro(txn, _ABORTED, reason="crash-or-bug")
                raise
            self._finish_ro(txn, _COMMITTED)
            return result
        finally:
            # Unpin whatever happened — a leaked pin would wedge GC.
            snapshots.release(snapshot)

    def snapshot_manager(self) -> "SnapshotManager":
        """The site's snapshot manager, built with its version store at
        the first call — the first ``beginRO`` here: the store seeds its
        chains from the current copies and sweeps with the site from
        then on (DESIGN.md §8)."""
        if self.snapshots is None:
            # Here, so a world without snapshots never loads the module.
            from repro.mvcc import MultiVersionStore, SnapshotManager

            site = self.site
            store = site.mvcc = MultiVersionStore(self.kernel, site)
            site.power_on_hooks.append(store.on_power_on)
            if not site.is_down:
                store.on_power_on()
            self.snapshots = SnapshotManager(self.kernel, site, store)
        return self.snapshots

    def _finish_ro(
        self, txn: Transaction, status: TxnStatus, reason: str | None = None
    ) -> None:
        """Terminate a read-only transaction.

        Deliberately disjoint from :meth:`_finish`: no commit decision
        logged, no history-recorder outcome, and none of the RW stats —
        a snapshot read commits locally by construction, and mixing it
        into the RW counters would flatter every 2PC statistic.
        """
        txn.status = status
        txn.end_time = self.kernel.now
        txn.abort_reason = reason
        self._active.discard(txn.txn_id)
        obs = self.site.obs
        obs.registry.histogram("txn.latency", self.site_id).observe(
            txn.end_time - txn.start_time
        )
        if txn.span is not None:
            obs.spans.finish(txn.span, status=status.value, reason=reason)
            if status is _COMMITTED:
                obs.spans.annotate(txn.span, ack_time=self.kernel.now)
        if status is _COMMITTED:
            self.stats.ro_committed += 1
            self.stats.ro_latencies.append(txn.end_time - txn.start_time)
        else:
            self.stats.ro_aborted += 1
        for fn in self.kernel.probes.txn_finish:
            fn(self.site_id, txn)

    def run(
        self,
        program: TxnProgram,
        kind: TxnKind = TxnKind.USER,
        parent_span: int | None = None,
    ) -> typing.Generator:
        """Transaction body; drive with ``yield from`` or via :meth:`submit`.

        ``parent_span`` nests the transaction's root span under another
        span when tracing is on (e.g. a copier refresh round or a
        recovery run spawning control transactions).
        """
        if kind is _USER and not self.site.is_operational:
            self.stats.refused += 1
            raise NotOperational(self.site_id)
        txn = Transaction(home_site=self.site_id, kind=kind, start_time=self.kernel.now)
        obs = self.site.obs
        if obs.spans_on:
            txn.span = obs.spans.start(
                f"txn:{txn.txn_id}", kind.value, self.site_id,
                parent=parent_span, txn_id=txn.txn_id,
            )
        ctx = TxnContext(self, txn)
        self._active.add(txn.txn_id)
        try:
            if kind is _USER:
                yield from self.strategy.begin(ctx)
            result = yield from program(ctx)
        except ABORT_CAUSES as exc:
            yield from self._abort(ctx, exc)
            raise TransactionAborted(txn.txn_id, _reason_of(exc)) from exc
        except BaseException:
            # Programming error or site crash (Interrupt): release what we
            # can and re-raise unchanged.
            if not txn.is_finished:
                self._abort_fire_and_forget(ctx, "crash-or-bug")
            raise
        yield from self._commit(ctx)
        if kind is _USER:
            # The commit strategy has returned: this is the moment the
            # client ack leaves, whatever the commit mode kept on the
            # client path.
            self.stats.ack_latencies.append(self.kernel.now - txn.start_time)
            if txn.span is not None:
                # Critpath's window end: under sync 2PC the root span
                # closed at the *decision*, before the commit round the
                # client still waited on.
                obs.spans.annotate(txn.span, ack_time=self.kernel.now)
        return result

    # -- termination --------------------------------------------------------------

    def _commit(self, ctx: TxnContext) -> typing.Generator:
        txn = ctx.txn
        write_sites = sorted(txn.wrote_sites)
        read_only_sites = sorted(txn.touched_sites - txn.wrote_sites)

        if not write_sites:
            self._finish(txn, _COMMITTED, None)
            for site_id in read_only_sites:
                ctx.release_site(site_id)
            return

        strategy = self.commit_strategies[Sync2pcCommit.name]
        if txn.kind is _USER:
            strategy = self.commit_strategies[self.config.commit_mode]

        obs = self.site.obs
        two_pc = None
        if obs.spans_on and txn.span is not None:
            two_pc = obs.spans.start(
                "2pc", "2pc", self.site_id, parent=txn.span.span_id
            )
        try:
            # Under async_quorum this returns at the decision (the span
            # then measures time-to-decision; the drain has its own).
            yield from strategy.commit(ctx, write_sites, read_only_sites, two_pc)
        finally:
            if two_pc is not None:
                obs.spans.finish(two_pc, outcome=txn.status.value)

    def decide_version(self, txn: Transaction) -> Version:
        """The committed version under the active version policy."""
        if self.version_policy == "timestamp":
            return Version(txn.start_time, txn.seq, txn.seq)
        return Version(self.kernel.now, next_commit_seq(), txn.seq)

    def mark_missed(
        self,
        txn: Transaction,
        lost_sites: typing.Iterable[int],
        acked_sites: typing.Iterable[int],
    ) -> None:
        """Repair staleness knowledge after commit-ack loss.

        A site that voted yes and then crashed before the COMMIT arrived
        never applied the writes, yet the sites that did apply carry
        write-time ``applied_sites`` naming it — their stale trackers
        recorded nothing. The coordinator is the only party that saw the
        loss, so it fans the ``(item, lost_site)`` pairs out to every
        acked site (and its own); any one surviving entry is enough for
        the lost site's recovery identification to mark the copy.
        Fire-and-forget: the marks only need to land before that site's
        recovery runs, which is bounded below by failure detection.
        """
        lost = sorted(set(lost_sites))
        pairs = tuple(
            (item, site_id)
            for site_id in lost
            for item in sorted(txn.written_items)
            if site_id in self.catalog.sites_of(item)
        )
        if not pairs:
            return
        request = MarkMissedRequest(txn.txn_id, pairs)
        for site_id in sorted(set(acked_sites) | {self.site_id}):
            self.rpc.call(
                site_id, "dm.mark_missed", request, span_parent=txn.span_id
            )

    # -- async drain (async_quorum commit mode) -------------------------------

    def spawn_drain(
        self,
        ctx: TxnContext,
        write_sites: list[int],
        read_only_sites: list[int],
        version: Version,
    ) -> Process:
        """Start the background apply stream for a decided transaction."""
        self.stats.drains_spawned += 1
        return self.site.spawn(
            self._drain(ctx, write_sites, read_only_sites, version),
            name=f"drain:{ctx.txn.txn_id}",
        )

    def _drain(
        self,
        ctx: TxnContext,
        write_sites: list[int],
        read_only_sites: list[int],
        version: Version,
    ) -> typing.Generator:
        """Apply a decided commit at every write site, off the client path.

        Lagging sites are retried ``DRAIN_RETRIES`` times; a site still
        unreachable after that is given up to recovery — its prepared
        participation resolves through the coordinator's logged decision,
        kept for it, and its copies catch up through the normal marks +
        ``wal.ship`` transport. Every give-up increments
        ``tm.commit_ack_lost``; a drain that every site acked forgets the decision.
        """
        txn = ctx.txn
        obs = self.site.obs
        span = None
        if obs.spans_on:
            span = obs.spans.start(
                "drain", "drain", self.site_id,
                parent=txn.span_id, txn_id=txn.txn_id,
            )
        span_parent = span.span_id if span is not None else None
        request = CommitRequest(txn.txn_id, version)
        remaining = list(write_sites)
        acked: list[int] = []
        try:
            for site_id in read_only_sites:
                ctx.release_site(site_id)
            attempts = DRAIN_RETRIES + 1
            for attempt in range(attempts):
                acks = self.rpc.call_many(
                    remaining, "dm.commit", request,
                    timeout=self.config.rpc_timeout, span_parent=span_parent,
                )
                failed: list[int] = []
                for site_id, future in acks:
                    try:
                        yield future
                        acked.append(site_id)
                    except (NetworkError, TransactionError):
                        failed.append(site_id)
                remaining = failed
                if not remaining:
                    break
                if attempt + 1 < attempts:
                    yield self.kernel.timeout(DRAIN_RETRY_DELAY)
            self.stats.commit_ack_lost += len(remaining)
            if remaining:
                self.mark_missed(txn, remaining, acked)
            else:
                self.site.wal.decided.pop(txn.txn_id, None)
            self.stats.drains_completed += 1
            for fn in self.kernel.probes.drain_done:
                fn(self.site_id, txn, tuple(acked), tuple(remaining))
        finally:
            # Also runs when the coordinator crashes mid-drain: the span
            # closes, and the participants finish via in-doubt
            # resolution against the logged decision.
            if span is not None:
                obs.spans.finish(span, acked=len(acked), lost=len(remaining))

    def _abort(self, ctx: TxnContext, cause: BaseException) -> typing.Generator:
        txn = ctx.txn
        self._finish(txn, _ABORTED, None, reason=_reason_of(cause))
        acks = self.rpc.call_many(
            sorted(txn.touched_sites), "dm.abort", FinishRequest(txn.txn_id),
            timeout=self.config.rpc_timeout, span_parent=txn.span_id,
        )
        for _site_id, future in acks:
            try:
                yield future
            except (NetworkError, TransactionError):
                # Presumed abort keeps the miss safe (the participant
                # re-derives "aborted"), but count it for observability.
                self.stats.abort_ack_lost += 1
        return None

    def _abort_fire_and_forget(self, ctx: TxnContext, reason: str) -> None:
        txn = ctx.txn
        self._finish(txn, _ABORTED, None, reason=reason)
        if self.site.rpc.running:
            self.rpc.call_many(
                sorted(txn.touched_sites), "dm.abort", FinishRequest(txn.txn_id),
                span_parent=txn.span_id,
            )

    def _finish(
        self,
        txn: Transaction,
        status: TxnStatus,
        version: Version | None,
        reason: str | None = None,
    ) -> None:
        txn.status = status
        txn.end_time = self.kernel.now
        txn.abort_reason = reason
        self._active.discard(txn.txn_id)
        obs = self.site.obs
        obs.registry.histogram("txn.latency", self.site_id).observe(
            txn.end_time - txn.start_time
        )
        if txn.span is not None:
            obs.spans.finish(txn.span, status=status.value, reason=reason)
        if status is _COMMITTED:
            if txn.wrote_sites:
                # The commit point: force the decision into the log
                # BEFORE any COMMIT message leaves this site, so a
                # restarted coordinator answers in-doubt participants
                # correctly (presumed abort's one logging requirement).
                self.site.wal.log_decision(txn.txn_id, version)
            self.recorder.mark_committed(txn.txn_id)
            self.stats.committed += 1
            self.stats.commit_latencies.append(txn.end_time - txn.start_time)
        else:
            self.recorder.mark_aborted(txn.txn_id)
            self.stats.aborted += 1
            self.stats.aborts_by_reason[reason or "unknown"] += 1
        for fn in self.kernel.probes.txn_finish:
            fn(self.site_id, txn)


def _reason_of(exc: BaseException) -> str:
    """Stable, kebab-cased abort-reason label for metrics."""
    name = type(exc).__name__
    out = []
    for index, char in enumerate(name):
        if char.isupper() and index > 0:
            out.append("-")
        out.append(char.lower())
    return "".join(out)
