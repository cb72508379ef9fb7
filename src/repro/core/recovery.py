"""The site recovery procedure (§3.4).

Steps, exactly as the paper numbers them:

1. The rebooted site turns on its TM and DM with ``as[k] = 0`` — done by
   the site/cluster lifecycle before this manager runs; only control
   transactions are processable.
2. Mark the (possibly) out-of-date local copies unreadable, via the
   configured identification policy (conservative mark-all, or a §5
   stale-copy table: fail-locks or missing lists).
3. Initiate a type-1 control transaction announcing the freshly chosen
   session number.
4. If it commits, load the new session number into ``as[k]``: the site
   is now operational. If it failed because *another* site crashed
   meanwhile, initiate a type-2 control transaction excluding that site
   and retry step 3 — the procedure survives any number of concurrent
   failures as long as one operational site remains.

After step 4 the recovery manager kicks the eager copiers; user
transactions are already being accepted — catching the data up proceeds
concurrently, which is the paper's headline latency win (experiment E2).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.config import RECOVERY_PROBE_TIMEOUT
from repro.core.control import make_type1_program, make_type2_program
from repro.core.copier import CopierService
from repro.core.identify import IdentificationPolicy, StaleTracker
from repro.core.session import SessionManager
from repro.errors import NetworkError, RpcTimeout, TransactionAborted
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.site.cluster import Cluster
from repro.site.site import Site
from repro.storage.catalog import Catalog
from repro.txn.manager import TransactionManager
from repro.txn.transaction import TxnKind

#: Backoff between recovery attempts (e.g. after a type-1 abort).
RECOVERY_RETRY_DELAY = 10.0
#: The procedure never gives up while the site stays RECOVERING: after
#: this many consecutive failed type-1 attempts it waits
#: ``5 * RECOVERY_RETRY_DELAY`` before each further attempt.
RECOVERY_BACKOFF_AFTER = 25
#: Pause between the type-1 commit and the precise policies' delta
#: collection pass: a writer serialized just before the type-1 may have
#: its commit-applications (which create the stale-table entries) still
#: in flight to the tracker sites. One network round suffices under
#: order-preserving latency; the fully general fix is concurrency-
#: controlled tracker access, which §5 itself prescribes ("Access to
#: elements should be under concurrency control").
POST_ANNOUNCE_SETTLE = 3.0


@dataclasses.dataclass
class RecoveryRecord:
    """Timeline of one recovery attempt, for the E2/E6 metrics."""

    site_id: int
    power_on_at: float
    marked_items: int = 0
    identified_at: float | None = None
    operational_at: float | None = None
    type1_attempts: int = 0
    type2_runs: int = 0
    succeeded: bool = False
    session_number: int | None = None

    @property
    def time_to_operational(self) -> float | None:
        if self.operational_at is None:
            return None
        return self.operational_at - self.power_on_at


class RecoveryManager:
    """Runs the §3.4 procedure for one site."""

    def __init__(
        self,
        kernel: Kernel,
        site: Site,
        tm: TransactionManager,
        session: SessionManager,
        catalog: Catalog,
        cluster: Cluster,
        copiers: CopierService,
        identify: IdentificationPolicy,
    ) -> None:
        self.kernel = kernel
        self.site = site
        self.tm = tm
        self.session = session
        self.catalog = catalog
        self.cluster = cluster
        self.copiers = copiers
        self.identify = identify
        self.records: list[RecoveryRecord] = []
        site.rpc.register("recovery.probe", self._handle_probe)

    @property
    def rpc(self):
        return self.site.rpc

    def _handle_probe(self, payload: object, src: int) -> tuple[bool, int]:
        return (self.site.is_operational, self.session.current)

    def operational_peers(self) -> list[int]:
        """Other sites believed up, most recently confirmed first.

        A hint list only — every use double-checks by actually talking to
        the site.
        """
        detector = self.cluster.detector(self.site.site_id)
        me = self.site.site_id
        believed = [s for s in self.catalog.site_ids if s != me and detector.believes_up(s)]
        others = [
            s
            for s in self.catalog.site_ids
            if s != me and not detector.believes_up(s)
        ]
        return believed + others

    # -- entry point ------------------------------------------------------------

    def start(self) -> Process:
        """Spawn the recovery procedure (site must be RECOVERING); the
        power-on path calls it once per restart."""
        return self.site.spawn(self._recover(), name="recovery")

    def _recover(self) -> typing.Generator:
        obs = self.site.obs
        span = None
        if obs.spans_on:
            span = obs.spans.start("recovery", "recovery", self.site.site_id)
        try:
            record = yield from self._recover_inner(span)
        finally:
            if span is not None:
                obs.spans.finish(span)
        return record

    def _recover_inner(self, span=None) -> typing.Generator:
        parent_span = span.span_id if span is not None else None
        record = RecoveryRecord(site_id=self.site.site_id, power_on_at=self.kernel.now)
        self.records.append(record)
        self.copiers.reset_drain_marker()

        # Step 2: make the local database safe to rejoin.
        stale, _ = yield from self._identify()
        record.marked_items = len(stale)
        record.identified_at = self.kernel.now

        # Steps 3–4: claim nominally up, retrying through further crashes.
        # The loop never gives up while the site stays RECOVERING — the
        # paper's procedure succeeds whenever one operational site exists,
        # and until then there is nothing to do but retry. Backoff widens
        # after `RECOVERY_BACKOFF_AFTER` consecutive failures.
        attempt = 0
        while True:
            attempt += 1
            record.type1_attempts += 1
            if attempt > RECOVERY_BACKOFF_AFTER:
                yield self.kernel.timeout(RECOVERY_RETRY_DELAY * 5)
            source = yield from self._find_operational_site()
            if source is None:
                yield self.kernel.timeout(RECOVERY_RETRY_DELAY)
                continue
            new_session = self.session.choose_next()
            observed: dict[int, int] = {}
            program = make_type1_program(
                self.catalog.site_ids, self.site.site_id, source, new_session,
                observed=observed,
            )
            try:
                yield from self.tm.run(
                    program, kind=TxnKind.CONTROL, parent_span=parent_span
                )
            except TransactionAborted as exc:
                yield from self._handle_type1_failure(
                    exc, source, observed, record, parent_span
                )
                continue
            # Step 4: committed — the site is nominally up. Before
            # loading as[k] (no user transaction can be served until
            # then), a stale-copy table runs step 2 again as a DELTA
            # pass: writes that committed between the first collection
            # and the type-1's commit recorded misses it could not have
            # seen. Writers serialized *after* the type-1 see the new
            # session and either reach this site or abort on its
            # still-zero as[k], so the delta pass closes the window.
            if isinstance(self.identify, StaleTracker):
                # Let in-flight commit-applications (and the entries
                # they create) land first — see POST_ANNOUNCE_SETTLE.
                yield self.kernel.timeout(POST_ANNOUNCE_SETTLE)
                _, repaired = yield from self._identify()
                record.marked_items += repaired
            self.session.activate(new_session, self.kernel.now)
            self.site.become_operational()
            self.cluster.notify_recovered(self.site.site_id)
            record.operational_at = self.kernel.now
            record.succeeded = True
            record.session_number = new_session
            registry = self.site.obs.registry
            crash_at = self.site.last_crash_time
            registry.histogram("recovery.downtime", self.site.site_id).observe(
                self.kernel.now - (crash_at if crash_at is not None else record.power_on_at)
            )
            registry.histogram(
                "recovery.time_to_operational", self.site.site_id
            ).observe(self.kernel.now - record.power_on_at)
            self.copiers.start_eager()
            return record

    def _identify(self) -> typing.Generator:
        """§3.4 step 2, and its delta pass: collect the stale copies,
        repair them, make the repairs durable, then let the policy drop
        what it collected. Returns ``(stale items, copies repaired)``."""
        stale = yield from self.identify.collect_stale(self)
        repaired = yield from self._repair(stale)
        # Durable before after_marked() destroys the remote knowledge.
        self.site.wal.flush()
        yield from self.identify.after_marked(self, stale)
        return stale, repaired

    def _repair(self, stale: typing.Iterable[str]) -> typing.Generator:
        """Mark each stale copy unreadable; returns how many were
        readable. The spooler baseline overrides it to replay instead."""
        yield from ()
        copies = self.site.copies
        readable = 0
        for item in stale:
            readable += not copies.get(item).unreadable
            copies.mark_unreadable(item)
        return readable

    def _handle_type1_failure(
        self,
        exc: TransactionAborted,
        source: int,
        observed: dict[int, int],
        record: RecoveryRecord,
        parent_span: int | None = None,
    ) -> typing.Generator:
        """§3.4 step 4's failure path: exclude a newly crashed site.

        An RPC timeout alone is *not* crash evidence — it may be a long
        lock wait at a live site, and type 2 requires being "sure that
        the sites being claimed down are actually down" (§3.3). The
        failure detector (sound under crash-only failures) is the
        arbiter; a timeout against a site it still believes up is
        retried, not excluded. The claim is bound to the incarnation the
        aborted type 1 observed, so a concurrent re-recovery of the
        crashed site is never delisted.
        """
        cause = exc.__cause__
        detector = self.cluster.detector(self.site.site_id)
        if (
            isinstance(cause, RpcTimeout)
            and cause.dst != self.site.site_id
            and not detector.believes_up(cause.dst)
            and observed.get(cause.dst, 0) != 0
        ):
            crashed = cause.dst
            record.type2_runs += 1
            program = make_type2_program(
                self.catalog.site_ids,
                {crashed: observed[crashed]},
                source if source != crashed else self.site.site_id,
            )
            try:
                yield from self.tm.run(
                    program, kind=TxnKind.CONTROL, parent_span=parent_span
                )
            except TransactionAborted:
                pass  # another site may exclude it; we retry regardless
        yield self.kernel.timeout(RECOVERY_RETRY_DELAY)
        return None

    def _find_operational_site(self) -> typing.Generator:
        """Probe peers until one confirms it is operational."""
        for site_id in self.operational_peers():
            try:
                operational, _session = yield self.rpc.call(
                    site_id, "recovery.probe", None,
                    timeout=RECOVERY_PROBE_TIMEOUT,
                )
            except NetworkError:
                continue
            if operational:
                return site_id
        return None
