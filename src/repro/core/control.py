"""Control transactions (§3.3): the only writers of nominal session numbers.

* **Type 1** — "this site is nominally up". Initiated by the recovering
  site itself: reads an available copy of the nominal session vector,
  refreshes its own NS copies (acting as a copier for them), then writes
  the freshly chosen session number into ``ns_j[k]`` at every nominally
  up site *j* and into its own ``ns_k[k]``.
* **Type 2** — "these sites are nominally down". Initiated by any site
  that is sure the targets are down (sound under crash-only failures):
  writes 0 into all available copies of their nominal session numbers.

Both run through the ordinary TM/DM path — strict 2PL plus 2PC — as the
paper requires; their operations are *privileged* so recovering sites
can process them (§3.3) and so they are exempt from the session check
they themselves maintain.

:class:`ControlService` automates type-2 initiation off the failure
detector, retrying through conflicts and secondary crashes.
"""

from __future__ import annotations

import typing

from repro.core.nominal import ns_item
from repro.errors import NetworkError, TransactionAborted, TransactionError
from repro.txn.manager import TransactionManager
from repro.txn.transaction import TxnKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.site.cluster import Cluster
    from repro.site.site import Site
    from repro.txn.context import TxnContext

#: Timeout of the in-transaction liveness re-check a type-2 performs
#: before each claim (abandons the claim if the target answers).
TYPE2_VERIFY_PING = 8.0
#: Mean backoff between a :class:`ControlService`'s type-2 attempts
#: (jittered to ×0.5–1.5), and how many it makes per detected crash.
TYPE2_RETRY_DELAY = 10.0
TYPE2_MAX_ATTEMPTS = 20


def _write_each_ordered(
    ctx: "TxnContext",
    targets: typing.Sequence[tuple[int, int | None]],
    item: str,
    value: object,
) -> typing.Generator:
    """Sequential writes in ascending site order.

    Control transactions from different initiators X-lock the same NS
    copies at several sites; parallel fan-out acquires those locks in
    arrival order, which under load produces distributed deadlock cycles
    among the initiators (observed as minutes-long exclusion livelock in
    the operations-dashboard scenario). Classical ordered lock
    acquisition removes the cycles among control transactions entirely;
    the extra sequential round trips are irrelevant at control-
    transaction frequency ("only necessary when sites fail or recover",
    §6).
    """
    for site_id, expected in sorted(targets):
        yield from ctx.dm_write(
            site_id, item, value, expected=expected, privileged=True
        )
    return None


def make_type1_program(
    site_ids: typing.Sequence[int],
    recovering_site: int,
    source_site: int,
    new_session: int,
    observed: dict[int, int] | None = None,
):
    """Build the type-1 control transaction program (§3.3, §3.4 step 3).

    Returns the nominal session vector it observed. ``observed``, if
    given, is filled in-place with that vector as soon as it is read —
    the recovery manager uses it to bind a follow-up type-2 claim to the
    right incarnation even when this transaction subsequently aborts
    (§3.4 step 4). The program must be rebuilt fresh for every retry so
    that the vector is re-read.
    """

    def program(ctx: "TxnContext") -> typing.Generator:
        vector: dict[int, int] = {}
        versions: dict[int, object] = {}
        for site_id in site_ids:
            value, version = yield from ctx.dm_read(
                source_site, ns_item(site_id), privileged=True
            )
            vector[site_id] = int(value)  # type: ignore[call-overload]
            versions[site_id] = version
            if observed is not None:
                observed[site_id] = vector[site_id]

        # Refresh our own copies of the other sites' nominal session
        # numbers. These writes carry the source versions: with respect
        # to NS[j], j != k, this transaction "acts as a copier" (§4).
        for site_id in site_ids:
            if site_id == recovering_site:
                continue
            yield from ctx.dm_write(
                recovering_site,
                ns_item(site_id),
                vector[site_id],
                privileged=True,
                version_override=versions[site_id],  # type: ignore[arg-type]
            )

        # Claim nominally up: write the new session number to every
        # nominally up site's copy of NS[k], and to our own.
        targets = [
            (site_id, None)
            for site_id in site_ids
            if vector.get(site_id, 0) != 0 and site_id != recovering_site
        ]
        targets.append((recovering_site, None))
        yield from _write_each_ordered(
            ctx, targets, ns_item(recovering_site), new_session
        )
        return vector

    return program


def make_type2_program(
    site_ids: typing.Sequence[int],
    claims: typing.Mapping[int, int],
    source_site: int,
    confirm_down: typing.Callable[["TxnContext", int], typing.Generator] | None = None,
):
    """Build the type-2 control transaction program (§3.3).

    ``claims`` maps each site to be declared down to the session number
    its *crashed incarnation* was running when the initiator obtained its
    crash evidence. The paper requires the initiator to be "sure that the
    sites being claimed down are actually down"; binding the claim to an
    incarnation makes that sure-ness robust against the race where the
    target completes a type-1 recovery *between* detection and this
    transaction's commit — in that case the locked vector read below
    shows a newer session number and the claim is skipped, never
    delisting a live incarnation (which would break the session-check
    argument behind Theorem 3).

    ``source_site`` is where the nominal session vector is read — "likely
    the local copy" for an operational initiator, but a recovering site
    excluding a newly crashed peer (§3.4 step 4) must read from an
    operational site because its own copies are stale.

    ``confirm_down``, if given, is a generator function
    ``(ctx, site) -> bool`` run *inside* the transaction right before
    each claim; a False result (the site answered: it has powered on
    again since the crash) skips that claim. Under the crash-only model
    the incarnation binding above already keeps a claim off a live
    session; the ping costs one unanswered call per genuinely dead site.

    Returns the set of sites actually claimed down.
    """

    def program(ctx: "TxnContext") -> typing.Generator:
        vector: dict[int, int] = {}
        for site_id in site_ids:
            value, _version = yield from ctx.dm_read(
                source_site, ns_item(site_id), privileged=True
            )
            vector[site_id] = int(value)  # type: ignore[call-overload]

        claimed: set[int] = set()
        targets = [
            (site_id, None)
            for site_id in site_ids
            if vector.get(site_id, 0) != 0 and site_id not in claims
        ]
        for down in sorted(claims):
            expected_session = claims[down]
            current = vector.get(down, 0)
            if current == 0:
                continue  # already nominally down
            if expected_session != 0 and current != expected_session:
                continue  # a newer incarnation recovered meanwhile
            if confirm_down is not None:
                still_down = yield from confirm_down(ctx, down)
                if not still_down:
                    continue  # it answered: powered on again
            claimed.add(down)
            yield from _write_each_ordered(ctx, targets, ns_item(down), 0)
        return claimed

    return program


class ControlService:
    """Automatic type-2 initiation at one site.

    Listens to the site's failure detector; when a crash is detected and
    the local nominal view still believes the crashed site up, runs a
    type-2 control transaction, retrying through aborts (conflicting
    control transactions, further crashes) with backoff until the
    nominal view agrees or this site stops being operational.
    """

    def __init__(
        self,
        site: "Site",
        tm: TransactionManager,
        cluster: "Cluster",
    ) -> None:
        self.site = site
        self.tm = tm
        self.cluster = cluster
        self.type2_committed = 0
        self.type2_aborted = 0
        #: site -> session number of the incarnation observed *at
        #: detection time* (when the site was provably down). Claims are
        #: only ever bound to these values: capturing the current local
        #: value at retry time instead is unsound — in the window between
        #: a peer's type-1 commit and its recovery announcement, the
        #: local copy already holds the NEW session while the detector
        #: still says "down", and a claim bound to it would delist a
        #: live incarnation (observed as lost updates in the randomized
        #: soak before this fix).
        self._suspected: dict[int, int] = {}
        cluster.detector(site.site_id).on_down(self._on_down)
        site.crash_hooks.append(self._suspected.clear)

    def _local_ns_value(self, site_id: int) -> int:
        """Local, non-transactional peek used only as a scheduling hint."""
        item = ns_item(site_id)
        if not self.site.copies.has(item):
            return 0
        return int(self.site.copies.get(item).value)  # type: ignore[call-overload]

    def _on_down(self, crashed: int) -> None:
        if not self.site.is_operational:
            return
        expected = self._local_ns_value(crashed)
        if expected == 0:
            return  # already nominally down
        self._suspected[crashed] = expected
        self.site.spawn(self._exclude(crashed, expected), name=f"type2:{crashed}")

    def _confirm_down(self, ctx, target: int) -> typing.Generator:
        """In-transaction liveness re-check (see make_type2_program)."""
        try:
            yield self.site.rpc.call(
                target, "recovery.probe", None, timeout=TYPE2_VERIFY_PING
            )
        except (NetworkError, TransactionError):
            return True  # still unreachable: the claim stands
        return False  # it answered: powered on again — abandon

    def _exclude(self, crashed: int, expected: int) -> typing.Generator:
        """Claim ``crashed``'s incarnation ``expected`` nominally down."""
        kernel = self.tm.kernel
        for _attempt in range(TYPE2_MAX_ATTEMPTS):
            if not self.site.is_operational:
                return
            if self.cluster.detector(self.site.site_id).believes_up(crashed):
                self._suspected.pop(crashed, None)
                return  # the site announced its recovery meanwhile
            current = self._local_ns_value(crashed)
            if current == 0:
                self._suspected.pop(crashed, None)
                return  # someone's type 2 already committed
            if current != expected:
                self._suspected.pop(crashed, None)
                return  # a newer incarnation recovered; claim is moot
            # Piggyback claims for every other site currently known down
            # (type 2 may claim "one or more sites", §3.3) — each bound
            # to the incarnation recorded when ITS crash was detected.
            detector = self.cluster.detector(self.site.site_id)
            claims = {crashed: expected}
            for site_id, suspected_session in list(self._suspected.items()):
                if site_id == crashed or detector.believes_up(site_id):
                    continue
                if self._local_ns_value(site_id) != 0:
                    claims[site_id] = suspected_session
            program = make_type2_program(
                self.tm.catalog.site_ids, claims, self.site.site_id,
                confirm_down=self._confirm_down,
            )
            try:
                yield from self.tm.run(program, kind=TxnKind.CONTROL)
                self.type2_committed += 1
                return
            except TransactionAborted:
                self.type2_aborted += 1
                # Jittered backoff: concurrent initiators retrying in
                # lockstep re-collide forever.
                rng = kernel.rng.stream("control.backoff")
                yield kernel.timeout(TYPE2_RETRY_DELAY * (0.5 + rng.random()))
        return
