"""The data manager (DM): physical operations on one site's copies.

Responsibilities (§2, §3.1–§3.2 of the paper):

* carry out physical reads/writes under strict 2PL;
* perform the session-number check on every request: a request tagged
  with an ``expected`` session that differs from the site's actual
  session ``as[k]`` is rejected with
  :class:`~repro.errors.SessionMismatch` — this is what makes stale views
  harmless;
* refuse user operations unless the site is operational, while accepting
  *privileged* (control-transaction) operations in the recovering state;
* reject reads of copies marked unreadable (and notify the recovery
  layer, which may trigger an on-demand copier);
* act as a 2PC participant with presumed-abort semantics and cooperative
  termination, so that locks never leak when a coordinator crashes.

Volatile vs stable: the lock table and all participation records
(buffered writes, prepared flags) die with the site; only committed
writes reach the :class:`~repro.storage.copies.CopyStore`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import (
    CopyUnreadable,
    NetworkError,
    NotOperational,
    SessionMismatch,
    TransactionError,
)
from repro.histories.recorder import HistoryRecorder
from repro.sim.deadlines import Deadline, DeadlineQueue
from repro.sim.kernel import Kernel
from repro.site.site import Site
from repro.storage.copies import DataCopy, Version
from repro.txn.config import TxnConfig
from repro.txn.locks import LockManager, LockMode
from repro.txn.payloads import (
    BatchReadRequest,
    CommitRequest,
    FinishRequest,
    MarkMissedRequest,
    OutcomeQuery,
    PrepareRequest,
    ReadRequest,
    SnapshotReadRequest,
    WriteRequest,
)
from repro.txn.transaction import kind_of

#: Module names: a global load, not a class lookup, on every physical op.
_S = LockMode.S
_X = LockMode.X

#: How long a participant waits for the coordinator's decision before
#: starting cooperative termination (the orphan watch's deadline).
DECISION_TIMEOUT = 200.0
#: Retry period for a participant that is *prepared and in doubt*
#: (termination attempted, no decisive evidence — the classic 2PC
#: blocking window). Such a participant holds X locks that stall every
#: conflicting transaction, so it re-polls much faster than
#: ``DECISION_TIMEOUT``: the coordinator answers ``tm.outcome`` from
#: stable storage the moment it is powered back on, long before its
#: recovery procedure finishes.
INDOUBT_RETRY = 25.0


class WriteIntent(typing.NamedTuple):
    """A buffered write awaiting the 2PC decision (an immutable named
    tuple: one per buffered write)."""

    value: object
    version_override: Version | None
    applied_sites: tuple[int, ...]
    missed_sites: tuple[int, ...]


@dataclasses.dataclass
class _Participation:
    """Record of one transaction's activity at this DM.

    Volatile by default; under the ``async_quorum`` commit mode a
    prepared participation is also journaled (``durable``) and re-armed
    from the WAL after a crash (``restored``), so an acked commit
    survives even if every write site goes down before applying.
    """

    txn_id: str
    txn_seq: int
    kind: str
    coordinator: int
    writes: dict[str, WriteIntent] = dataclasses.field(default_factory=dict)
    prepared: bool = False
    participants: tuple[int, ...] = ()
    durable: bool = False  # prepare records reached the WAL
    restored: bool = False  # re-armed from the WAL after a crash
    #: The orphan watch's deadline (``DECISION_TIMEOUT`` after the first
    #: operation); None for a participation restored from the WAL.
    watch: Deadline | None = None


class DataManager:
    """One site's DM. Construct once per site; survives crashes in place
    (its volatile state is reset by the site's crash hook)."""

    def __init__(
        self,
        kernel: Kernel,
        site: Site,
        recorder: HistoryRecorder,
        config: TxnConfig,
    ) -> None:
        self.kernel = kernel
        self.site = site
        self.recorder = recorder
        self.config = config
        self.lock_manager = LockManager(kernel, site.site_id, obs=site.obs)
        self.actual_session = 0  # as[k]; volatile, set by the session manager
        self._participations: dict[str, _Participation] = {}
        #: The orphan watch: one deadline per participation, the backstop
        #: for a coordinator that stops talking to us (see
        #: :meth:`_orphan_due`).
        self._orphans = DeadlineQueue(kernel, DECISION_TIMEOUT, self._orphan_due)
        self._decided: dict[str, tuple[str, Version | None]] = {}
        #: Wiring, not a probe: the on-demand copier trigger, called with
        #: the item of every read refused for an unreadable copy.
        #: Observers never subscribe here — the DM's moments they watch
        #: (``access``, ``admit``, ``read``, ``snapshot_read``, ``apply``)
        #: are emitted on ``kernel.probes``.
        self.unreadable_read_hooks: list[typing.Callable[[str], None]] = []
        #: Fault-injection switch for the audit suite: disabling it makes
        #: the DM serve stale-view requests, which the protocol auditor's
        #: session-coherence monitor must then catch.
        self.session_check_enabled = True
        #: Optional §5 stale-copy table (fail-locks, missing lists, the
        #: spool); called as ``on_commit_write(item, applied, missed,
        #: value, version)`` for every committed physical write at this
        #: site.
        self.stale_tracker: typing.Any = None
        self.stats_session_rejections = 0
        self.stats_unreadable_rejections = 0
        #: Transactions with a live fast-resolver loop (see
        #: :meth:`resolve_coordinated_by`); guards against stacking one
        #: loop per detector transition.
        self._fast_resolving: set[str] = set()

        site.rpc.register("dm.read", self._handle_read)
        site.rpc.register("dm.read_batch", self._handle_read_batch)
        site.rpc.register("dm.read_snapshot", self._handle_read_snapshot)
        site.rpc.register("dm.write", self._handle_write)
        site.rpc.register("dm.prepare", self._handle_prepare)
        site.rpc.register("dm.commit", self._handle_commit)
        site.rpc.register("dm.abort", self._handle_finish)
        site.rpc.register("dm.release", self._handle_finish)
        site.rpc.register("dm.outcome", self._handle_outcome)
        site.rpc.register("dm.mark_missed", self._handle_mark_missed)
        site.crash_hooks.append(self._on_crash)
        # Runs after the WAL's restore (site.power_on replays the log
        # before any hook): re-arm durably prepared, undecided
        # transactions as in-doubt participations.
        site.power_on_hooks.append(self._on_power_on)

    @property
    def site_id(self) -> int:
        return self.site.site_id

    # -- crash semantics ------------------------------------------------------

    def _on_crash(self) -> None:
        self.lock_manager = LockManager(self.kernel, self.site_id, obs=self.site.obs)
        self._participations.clear()
        self._orphans.clear()
        self._decided.clear()
        self._fast_resolving.clear()
        self.actual_session = 0

    # -- access checks -----------------------------------------------------------

    def _check_access(self, expected: int | None, privileged: bool) -> None:
        probes = self.kernel.probes
        if probes.access:
            # The session check is the protocol's load-bearing read of
            # as[k]: a request validated against a session number that a
            # concurrent activate() is replacing is exactly the
            # interleaving the schedule sanitizer exists to surface.
            for fn in probes.access:
                fn(self.site_id, ("session",), "read",
                   "DataManager._check_access", self.actual_session)
        if not privileged:
            # §3.1: the request carries the session number the requester
            # believes this site is in; inequality with as[k] rejects it.
            # A recovering site (as[k] = 0) mismatches every tagged request,
            # which is exactly how the paper keeps user transactions out
            # before the type-1 control transaction commits.
            if (
                self.session_check_enabled
                and expected is not None
                and expected != self.actual_session
            ):
                self.stats_session_rejections += 1
                raise SessionMismatch(self.site_id, expected, self.actual_session)
            if not self.site.is_operational:
                raise NotOperational(self.site_id)
        for fn in probes.admit:
            fn(self.site_id, expected, privileged, self.actual_session)

    def _participation(
        self, request: ReadRequest | BatchReadRequest | WriteRequest, src: int
    ) -> _Participation:
        if request.txn_id in self._decided:
            # A straggler operation of a transaction we already finished
            # (its abort raced this request through the network).
            raise TransactionError(
                f"site {self.site_id}: {request.txn_id} already decided"
            )
        part = self._participations.get(request.txn_id)
        if part is None:
            part = _Participation(
                txn_id=request.txn_id,
                txn_seq=request.txn_seq,
                kind=request.kind,
                coordinator=src,
            )
            self._participations[request.txn_id] = part
            part.watch = self._orphans.add(request.txn_id)
        return part

    def _orphan_due(self, txn_id: str) -> None:
        """The participation is still open ``DECISION_TIMEOUT`` after it
        began: run the termination loop, from this event on."""
        self.site.adopt(self._terminate(txn_id), name=f"orphan-watch:{txn_id}")

    # -- operation handlers ---------------------------------------------------------
    # One admission pipeline per operation type; the scheduler (strict 2PL
    # here, timestamp ordering in repro.txn.timestamp) contributes only its
    # per-item decisions ``_read_copy``, ``_admit_write``, ``_install_write``.

    def _handle_read(self, request: ReadRequest, src: int) -> typing.Generator:
        """One read: the one-item case of :meth:`_read_items`. With
        ``peek_unreadable`` it is a metadata peek (§5 version comparison),
        not a database read: no unreadable check, no history record."""
        results = yield from self._read_items(
            request, src, (request.item,), request.peek_unreadable
        )
        return results[0]

    def _handle_read_batch(self, request: BatchReadRequest, src: int) -> typing.Generator:
        """Serve several reads of one transaction in a single request.

        The same walk as the :class:`ReadRequest` sequence, under every
        scheduler — identical scheduling decisions, rejections and
        history records — but one round trip. The ROWAA begin uses this
        to snapshot ``NS[*]`` once per transaction.
        """
        return (yield from self._read_items(request, src, request.items))

    def _read_items(
        self,
        request: ReadRequest | BatchReadRequest,
        src: int,
        items: typing.Sequence[str],
        peek: bool = False,
    ) -> typing.Generator:
        """The read pipeline: admission once, then per item the
        already-decided re-check, read-your-own-write, the scheduler's
        decision and the served-read tail."""
        self._check_access(request.expected, request.privileged)
        part = self._participation(request, src)
        results: list[tuple[object, Version]] = []
        for item in items:
            if request.txn_id in self._decided:
                # The transaction finished (aborted) while an earlier
                # scheduling decision in this request was waiting: its
                # locks are gone, and acquiring more here would hand locks
                # to a dead transaction and leak them forever. A per-item
                # request sequence hits the same check in `_participation`.
                raise TransactionError(
                    f"site {self.site_id}: {request.txn_id} already decided"
                )
            if item in part.writes:
                # Read-your-own-write: serve the buffered intent.
                intent = part.writes[item]
                results.append((intent.value, Version(self.kernel.now, 0, request.txn_seq)))
                continue
            copy = yield from self._read_copy(request.txn_id, request.txn_seq, item, peek)
            if peek:
                results.append((copy.value, copy.version))
            else:
                results.append(self._serve_read(request, item, copy))
        return results

    def _copy(self, item: str) -> DataCopy:
        if not self.site.copies.has(item):
            raise TransactionError(f"site {self.site_id} holds no copy of {item}")
        return self.site.copies.get(item)

    def _refuse_unreadable(self, item: str) -> typing.NoReturn:
        """A read hit an unreadable copy: count it, tell the recovery
        layer (which may trigger an on-demand copier), reject."""
        self.stats_unreadable_rejections += 1
        for hook in list(self.unreadable_read_hooks):
            hook(item)
        raise CopyUnreadable(item, self.site_id)

    def _read_copy(
        self, txn_id: str, txn_seq: int, item: str, peek: bool
    ) -> typing.Generator:
        """Scheduler decision 1 — read one committed copy (2PL: S lock)."""
        yield self.lock_manager.acquire(txn_id, item, _S)
        copy = self._copy(item)
        if copy.unreadable and not peek:
            # Drop the S lock just granted: the transaction observed no
            # data, and keeping it would block the copier this rejection
            # is about to trigger.
            self.lock_manager.release_one(txn_id, item)
            self._refuse_unreadable(item)
        return copy

    def _serve_read(
        self, request: ReadRequest | BatchReadRequest, item: str, copy: DataCopy
    ) -> tuple[object, Version]:
        """A database read was served: the one tail every read ends in
        (history record, then the ``read`` probe)."""
        version = copy.version
        self.recorder.record_read(
            time=self.kernel.now,
            txn_id=request.txn_id,
            txn_seq=request.txn_seq,
            kind=request.kind,
            item=item,
            site=self.site_id,
            version_seq=version.seq,
            version_ts=version.ts,
            version_commit=version.commit,
        )
        for fn in self.kernel.probes.read:
            fn(self.site_id, item, version)
        return copy.value, version

    def _handle_read_snapshot(
        self, request: SnapshotReadRequest, src: int
    ) -> list[tuple[object, Version]]:
        """Serve a read-only transaction's reads at its pinned cut.

        Deliberately a plain (non-generator) handler: the whole batch
        resolves against the version chains in one synchronous step, so
        no committed write can interleave mid-batch — fractured reads
        are structurally impossible. No locks, no session check, no
        participation record, no history entry: the snapshot path never
        touches the RW machinery.
        """
        store = self.site.mvcc
        if store is None:
            raise TransactionError(
                f"site {self.site_id} has no multiversion store"
            )
        cut = (request.cut_ts, request.cut_commit)
        stale = store.is_stale_serving()
        results: list[tuple[object, Version]] = []
        for item in request.items:
            value, version = store.read_at(item, cut)
            for fn in self.kernel.probes.snapshot_read:
                fn(self.site_id, item, version, cut)
            results.append((value, version))
        store.stats.ro_served += len(results)
        if stale:
            store.stats.ro_served_stale += len(results)
        return results

    def _handle_write(self, request: WriteRequest, src: int) -> typing.Generator:
        """The write pipeline: admission, the scheduler's decision, the
        buffered intent, and (pipelined 2PC) the durable prepare vote."""
        self._check_access(request.expected, request.privileged)
        part = self._participation(request, src)
        yield from self._admit_write(request.txn_id, request.txn_seq, request.item)
        part.writes[request.item] = WriteIntent(
            value=request.value,
            version_override=request.version_override,
            applied_sites=request.applied_sites,
            missed_sites=request.missed_sites,
        )
        if request.prepare:
            # Pipelined 2PC (async_quorum): this ack doubles as a
            # prepare vote. Safe because strict 2PL already holds the X
            # lock and the intent is buffered — the only way to renege
            # is a crash, which the coordinator's quorum rule and the
            # recovery marks cover. Deadlock victims are aborted by the
            # coordinator globally *before* any decision, so the vote's
            # promise is never broken unilaterally.
            part.prepared = True
            part.participants = tuple(request.applied_sites) or (self.site_id,)
            wal = self.site.wal
            wal.log_prepare(
                request.txn_id,
                request.txn_seq,
                part.coordinator,
                part.participants,
                request.item,
                request.value,
                version_override=request.version_override,
                applied_sites=request.applied_sites,
                missed_sites=request.missed_sites,
            )
            part.durable = True
            # Group commit: every prepare landing this timestep shares
            # one stable segment write; the ack is gated on durability
            # but costs no simulated time today — the wal-stall span
            # marks the boundary so critpath charges any future flush
            # latency to wal_stall, not execution.
            obs = self.site.obs
            stall = None
            if obs.spans_on:
                # Parented to the transaction root (same recorder across
                # sites); skipped if the root was never recorded — a
                # parentless txn_id span would usurp the root registry.
                root = obs.spans.root_of(request.txn_id)
                if root is not None:
                    stall = obs.spans.start(
                        "wal-stall", "wal_stall", self.site_id,
                        parent=root, txn_id=request.txn_id,
                    )
            try:
                yield wal.flush_soon()
            finally:
                if stall is not None:
                    obs.spans.finish(stall)
        return True

    def _admit_write(self, txn_id: str, txn_seq: int, item: str) -> typing.Generator:
        """Scheduler decision 2 — admit one write intent (2PL: X lock)."""
        yield self.lock_manager.acquire(txn_id, item, _X)
        self._copy(item)

    # -- 2PC participant ------------------------------------------------------------

    def _handle_prepare(self, request: PrepareRequest, src: int) -> bool:
        part = self._participations.get(request.txn_id)
        if part is None:
            # We lost the workspace (crash) or never saw the transaction:
            # vote no; presumed abort makes this safe.
            return False
        part.prepared = True
        part.participants = tuple(request.participants)
        return True

    def _handle_commit(self, request: CommitRequest, src: int) -> bool:
        self._apply_commit(request.txn_id, request.version)
        return True

    def _handle_finish(self, request: FinishRequest, src: int) -> bool:
        self._apply_abort(request.txn_id)
        return True

    def _handle_mark_missed(self, request: MarkMissedRequest, src: int) -> bool:
        """Record (item, site) staleness pairs reported by a coordinator
        whose COMMIT never reached ``site`` — see
        :class:`~repro.txn.payloads.MarkMissedRequest`."""
        if self.stale_tracker is not None:
            for item, missed in request.pairs:
                self.stale_tracker.on_commit_write(item, (), (missed,))
            if self.stale_tracker.durable:
                self.site.wal.flush()  # durable before the coordinator hears back
        return True

    def _handle_outcome(self, query: OutcomeQuery, src: int) -> tuple[str, Version | None]:
        decided = self._decided.get(query.txn_id)
        if decided is not None:
            return decided
        part = self._participations.get(query.txn_id)
        if part is None:
            return ("unknown", None)
        return ("prepared" if part.prepared else "active", None)

    def _apply_commit(self, txn_id: str, version: Version) -> None:
        part = self._participations.pop(txn_id, None)
        if part is None:
            return  # idempotent (duplicate decision or post-crash)
        if part.watch is not None:
            part.watch.cancel()
        for item, intent in part.writes.items():
            applied = intent.version_override if intent.version_override is not None else version
            if self._install_write(part, item, intent.value, applied):
                self._write_applied(part, item, intent, applied)
        self._decided[txn_id] = ("committed", version)
        if part.durable:
            # The resolve record rides the same group commit as the
            # applied writes; it retires the in-doubt prepare.
            self.site.wal.log_resolve(txn_id, "committed")
        if part.writes or part.durable:
            # Group commit: every record journaled while applying this
            # transaction's writes becomes durable in one segment write.
            self.site.wal.on_commit()
        self.lock_manager.cancel(txn_id)

    def _install_write(
        self, part: _Participation, item: str, value: object, applied: Version
    ) -> bool:
        """Scheduler decision 3 — install one committed write; False
        when the write is skipped (and so must not be recorded). Under
        2PL only a restored in-doubt apply can be."""
        if part.restored:
            # In-doubt apply after a restart: a copier may already
            # have refreshed this copy past the prepared write, and
            # the copy's unreadable mark (recovery step 2) must
            # survive the apply — this one committed write does not
            # prove the copy is current.
            if not self.site.copies.has(item):
                return False
            current = self.site.copies.get(item)
            if current.version >= applied:
                return False  # superseded while we were down
            was_unreadable = current.unreadable
            self.site.copies.apply_write(item, value, applied)
            if was_unreadable:
                self.site.copies.mark_unreadable(item)
        else:
            self.site.copies.apply_write(item, value, applied)
        return True

    def _write_applied(
        self, part: _Participation, item: str, intent: WriteIntent, applied: Version
    ) -> None:
        """A committed write reached the copy store: the one tail every
        installed write ends in (history record, §5 stale tracking, then
        the ``apply`` probe)."""
        self.recorder.record_write(
            time=self.kernel.now,
            txn_id=part.txn_id,
            txn_seq=part.txn_seq,
            kind=part.kind,
            item=item,
            site=self.site_id,
            version_seq=applied.seq,
            version_ts=applied.ts,
            version_commit=applied.commit,
        )
        if self.stale_tracker is not None:
            self.stale_tracker.on_commit_write(
                item,
                intent.applied_sites,
                intent.missed_sites,
                value=intent.value,
                version=applied,
            )
        for fn in self.kernel.probes.apply:
            fn(
                self.site_id,
                part.txn_id,
                part.kind,
                part.txn_seq,
                item,
                intent.value,
                applied,
                intent.version_override is not None,
            )

    def _apply_abort(self, txn_id: str) -> None:
        part = self._participations.pop(txn_id, None)
        if part is not None:
            if part.watch is not None:
                part.watch.cancel()
            self._decided[txn_id] = ("aborted", None)
            if part.durable:
                # Lazy durability: losing this record only re-arms the
                # transaction as in-doubt, and resolution re-aborts.
                self.site.wal.log_resolve(txn_id, "aborted")
        self.lock_manager.cancel(txn_id)

    # -- orphan/in-doubt termination -----------------------------------------------

    def _on_power_on(self) -> None:
        """Re-arm durably prepared, undecided transactions after a restart.

        The WAL's restore (which ran just before this hook) collected
        every prepare record without a matching resolve. Each becomes an
        in-doubt participation — prepared, holding no locks (the site is
        recovering, so user traffic is fenced off by ``as[k] = 0``) —
        and a resolver process that queries the coordinator immediately
        instead of waiting out ``DECISION_TIMEOUT``.
        """
        for txn_id, records in self.site.wal.unresolved_prepares().items():
            if txn_id in self._participations or txn_id in self._decided:
                continue
            writes: dict[str, WriteIntent] = {}
            coordinator = self.site_id
            txn_seq = 0
            participants: tuple[int, ...] = ()
            for record in records:  # LSN order: the last record per item wins
                assert record.item is not None
                writes[record.item] = WriteIntent(
                    value=record.value,
                    version_override=record.version,
                    applied_sites=record.applied_sites,
                    missed_sites=record.missed_sites,
                )
                txn_seq = record.txn_seq
                participants = record.participants
                if record.coordinator is not None:
                    coordinator = record.coordinator
            self._participations[txn_id] = _Participation(
                txn_id=txn_id,
                txn_seq=txn_seq,
                kind=kind_of(txn_id),
                coordinator=coordinator,
                writes=writes,
                prepared=True,
                participants=participants,
                durable=True,
                restored=True,
            )
            self.site.spawn(
                self._terminate(txn_id, announce=True), name=f"in-doubt:{txn_id}"
            )

    def _announce_outcome(self, part: _Participation) -> typing.Generator:
        """Cooperative-termination push after resolving a restored in-doubt
        transaction: tell the other participants the outcome.

        They are polling the coordinator too, but every blocked attempt
        eats a full RPC-timeout round against the (then-down) coordinator
        before falling back to peers — this push releases their X locks
        within one message delay of this site powering back on. Both
        messages are idempotent duplicates of the coordinator's own
        decision traffic, so racing the peers' resolvers is harmless.
        """
        outcome = self._decided.get(part.txn_id)
        if outcome is None:
            return
        status, version = outcome
        for peer in part.participants:
            if peer == self.site_id:
                continue
            try:
                if status == "committed":
                    assert version is not None
                    yield self.site.rpc.call(
                        peer, "dm.commit", CommitRequest(part.txn_id, version),
                        timeout=self.config.rpc_timeout,
                    )
                else:
                    yield self.site.rpc.call(
                        peer, "dm.abort", FinishRequest(part.txn_id),
                        timeout=self.config.rpc_timeout,
                    )
            except (NetworkError, TransactionError):
                continue  # the peer's own resolver remains the backstop

    def resolve_coordinated_by(self, coordinator: int) -> None:
        """Immediately resolve transactions coordinated by a site whose
        reachability just changed (declared down, or announced back up).

        On the *down* transition: without this, locks held by a crashed
        coordinator's transactions leak until the periodic orphan
        watcher's ``DECISION_TIMEOUT`` fires — long enough to stall user
        transactions and, transitively, the NS lock chain a recovering
        site's type-1 needs (observed in the operations-dashboard
        incident). On the *up* transition: a durably prepared in-doubt
        participant blocked on the classic 2PC window gets its
        authoritative answer (stable decision record, else presumed
        abort) the moment the coordinator announces recovery, instead of
        holding its X locks for up to ``DECISION_TIMEOUT`` after the
        coordinator is already back — under ``async_quorum``, whose
        pipelined prepares make every mid-transaction coordinator crash
        an in-doubt episode, that gap is the difference between a brief
        stall and wedging every hot item for the poll interval. The
        watcher remains as the backstop for coordinators that stop
        answering without crashing.
        """
        for part in list(self._participations.values()):
            if part.coordinator == coordinator and (
                part.txn_id not in self._fast_resolving
            ):
                self._fast_resolving.add(part.txn_id)
                # Resolve now; while blocked in doubt, re-poll at
                # ``INDOUBT_RETRY`` — the coordinator answers
                # ``tm.outcome`` from stable storage the moment it is
                # powered back on, which turns "X locks held until its
                # recovery procedure completes" into "held until it has
                # power". A never-prepared orphan whose coordinator is
                # alive and working is left to the orphan watch.
                self.site.spawn(
                    self._terminate(part.txn_id, give_up_unprepared=True),
                    name=f"orphan-now:{part.txn_id}",
                )

    def _terminate(
        self,
        txn_id: str,
        give_up_unprepared: bool = False,
        announce: bool = False,
    ) -> typing.Generator:
        """The one 2PC termination loop: resolve, wait, resolve again.

        Covers in-doubt prepared participants (classic 2PC termination)
        and plain orphans (coordinator crashed before prepare, leaving
        locks held here); its three callers — the orphan watch at its
        deadline, the detector-driven resolver and the restored in-doubt
        one — all resolve at once and differ in two things.
        ``give_up_unprepared``: an unresolved participation that never
        prepared ends the detector-driven loop (the orphan watch stays
        as its backstop). ``announce``: a restored in-doubt participation
        pushes the outcome it learned to its peers. Once a prepared
        participant has *tried* termination and come up empty (blocked
        in doubt, X locks held), every loop re-polls at the much shorter
        ``INDOUBT_RETRY``.
        """
        wait = None
        try:
            while True:
                if wait is not None:
                    yield self.kernel.timeout(wait)
                part = self._participations.get(txn_id)
                if part is None:
                    return  # decided through the normal path
                done = yield from self._resolve(part)
                if done:
                    if announce:
                        yield from self._announce_outcome(part)
                    return
                if part.prepared:
                    wait = INDOUBT_RETRY
                elif give_up_unprepared:
                    return
                else:
                    wait = DECISION_TIMEOUT
        finally:
            # Re-arms resolve_coordinated_by for this transaction (a
            # no-op for the two loops it did not spawn: their exit means
            # the participation is gone).
            self._fast_resolving.discard(txn_id)

    def _resolve(self, part: _Participation) -> typing.Generator:
        status, version = yield from self._query(
            part.coordinator, "tm.outcome", part.txn_id
        )
        if self._settle(part.txn_id, status, version):
            return True
        if status == "active":
            return False  # coordinator alive and still working; keep waiting
        # Coordinator unreachable: ask the other participants
        # (cooperative termination).
        for peer in part.participants:
            if peer == self.site_id:
                continue
            status, version = yield from self._query(peer, "dm.outcome", part.txn_id)
            if self._settle(part.txn_id, status, version):
                return True
        if part.prepared:
            # In doubt with no decisive evidence: BLOCK (keep polling).
            # The coordinator logs commit decisions stably before sending
            # them, so when it recovers it will answer authoritatively;
            # unilaterally presuming abort here could undo a decided
            # commit (the classic 2PC blocking window).
            return False
        # Never prepared: the coordinator cannot have decided commit, so
        # presumed abort is safe for a plain orphan.
        self._apply_abort(part.txn_id)
        return True

    def _settle(self, txn_id: str, status: str, version: Version | None) -> bool:
        """Act on a decisive answer to an outcome query; False if the
        answer decides nothing (active, prepared, unknown, unreachable)."""
        if status == "committed":
            assert version is not None
            self._apply_commit(txn_id, version)
            return True
        if status == "aborted":
            self._apply_abort(txn_id)
            return True
        return False

    def _query(self, site_id: int, kind: str, txn_id: str) -> typing.Generator:
        try:
            reply = yield self.site.rpc.call(
                site_id, kind, OutcomeQuery(txn_id), timeout=self.config.rpc_timeout
            )
        except (NetworkError, TransactionError):
            return ("unreachable", None)
        return reply
