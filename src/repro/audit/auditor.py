"""The online protocol auditor.

:class:`ProtocolAuditor` subscribes to the existing observability
streams (spans, metrics collectors) plus the protocol moments of the
kernel's probe bus (:mod:`repro.sim.probes`: ``admit``, ``read``,
``snapshot_read``, ``apply``, ``logical_write``, ``txn_finish``,
``drain_done``, ``wal_flush``, ``wal_checkpoint``, ``gc``, ``crash``,
``power_on``, ``recovered``) and continuously evaluates the paper's
invariants while a simulation runs:

1. **online 1SR** — §4's Corollary over the committed history so far:
   :func:`repro.histories.graphs.build_one_stg` (the candidate 1-STG
   over DB items that every 1SR verdict uses) must stay acyclic. It is
   built at :meth:`ProtocolAuditor.stop` and
   :meth:`ProtocolAuditor.summary` only — rebuilding it as the history
   grows would cost quadratic time — and a cycle is a critical
   ``onesr.cycle`` alert, stamped with the time of that check;
2. **session coherence** (§3.1/§3.3) — a served physical operation
   whose ``expected`` tag differs from ``as[k]`` fires
   ``session.check``; a committed original control write installing a
   non-fresh ``NS[k]`` value fires ``session.ns_monotonic``;
3. **missing-list conservatism** (§5) — the auditor maintains an
   omniscient oracle of the latest committed version per logical item
   (fed by commit applications); an *unmarked* stale copy at a site
   that just became operational fires ``missinglist.conservatism``, and
   a database read actually served from a stale unmarked copy fires
   ``oracle.stale_read``;
4. **ROWAA write coverage** (§2/§3.2) — a committed user transaction
   whose logical write did not fan out to every copy nominally up in
   its NS-view fires ``rowaa.write_coverage``;
5. **WAL/durable coherence** — per-site durable-LSN monotonicity
   (``wal.durable_monotonic``), checkpoint ≤ durable LSN
   (``wal.checkpoint_bound``), and replay fidelity: at crash time the
   auditor fingerprints the state reconstructible from checkpoint + log
   (its own ~40-line mirror of ``SiteWal.restore``), and at power-on
   the restored copies/session/§5 table must hash identically
   (``wal.replay_fingerprint``);
6. **multiversion snapshot reads** (``repro.mvcc``) — the auditor
   mirrors every site's committed version history (fed by the same
   commit applications as the oracle) and checks each served snapshot
   read against it: a read above its transaction's pinned cut, or one
   that is not the *newest* version at-or-below the cut in the site's
   own history, fires ``mvcc.snapshot_consistency``; a GC sweep that
   reclaims the floor version of an active pinned cut (or a chain's
   newest version) fires ``mvcc.gc_pinned``. The consistency rule is
   deliberately site-local: with asymmetric local/remote delivery the
   global oracle is *ahead* of a correct snapshot, so comparing against
   it would false-positive (see DESIGN.md "Snapshot reads");
7. **quorum commit soundness** (``commit_mode="async_quorum"``) — a
   committed async transaction whose durably prepared write sites fall
   short of the per-item majority rule fires ``quorum.majority``; a
   drain that gives up on a write site which *never crashed* since the
   decision fires ``quorum.drain_uncovered`` — the give-up path is only
   sound when the lagging site's copies are covered by recovery marks,
   which presupposes a crash/recovery, so abandoning a continuously-up
   site would lose the write permanently.

Liveness watchdogs run as a periodic kernel process — the one that
also evaluates rule 1, ended by :meth:`ProtocolAuditor.stop`, which
``system.stop()`` calls — at warning severity, so they never trip the
critical-only CI gate: a nominally-up site
whose non-NS unreadable count stops draining
(``liveness.drain_stall``), a copier service with pending work but
frozen counters (``liveness.copier_starved``), a 2PC span open past a
sim-time budget (``liveness.twopc_overrun``), and an
async-drain span open past its own budget
(``liveness.drain_overrun``).

All probes are read-only: the auditor never mutates protocol state, and
the bus slots it subscribes to are empty (one falsy test each) when no
auditor is attached. Every probe carries the emitting ``site_id``, so
the handlers are plain methods subscribed once, and both schedulers
(2PL and timestamp ordering) feed them through the same DM tails.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import typing

from repro.audit.alerts import Alert, AlertLog
from repro.core.nominal import (
    db_item_filter,
    is_ns_item,
    ns_site,
    unreadable_db_count,
)
from repro.digraph import NoCycle, find_cycle
from repro.errors import Interrupt
from repro.histories.graphs import build_one_stg
from repro.txn.transaction import Transaction, TxnKind, TxnStatus
from repro.wal.log import CHECKPOINT_ITEM_PREFIX, CHECKPOINT_KEY

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.site.site import Site
    from repro.storage.copies import Version
    from repro.system import DatabaseSystem


#: How often the watchdog checks the sim-time budgets below.
WATCHDOG_INTERVAL = 25.0
#: An operational site's non-NS unreadable count must change within
#: this budget while nonzero.
DRAIN_STALL_BUDGET = 400.0
#: A copier service with pending items must advance some counter
#: within this budget.
COPIER_STALL_BUDGET = 400.0
#: A 2PC span may stay open at most this long (needs spans enabled).
TWOPC_BUDGET = 200.0
#: An async-quorum drain span may stay open at most this long
#: (retries across site outages make drains slower than 2PC rounds).
DRAIN_BUDGET = 400.0


def _vkey(version: "Version") -> tuple[float, int]:
    """Version order: the (ts, commit) pair (see ``logical_write_order``)."""
    return (version.ts, version.commit)


class ProtocolAuditor:
    """Live invariant monitoring over one :class:`DatabaseSystem`."""

    def __init__(self, system: "DatabaseSystem") -> None:
        self.system = system
        self.kernel = system.kernel
        self.obs = system.obs
        self.recorder = system.recorder
        self.alerts = AlertLog()
        self.checks = 0  # invariant evaluations performed
        self._cycle_found = False
        #: Omniscient oracle: latest committed version per logical item.
        self._oracle: dict[str, "Version"] = {}
        #: Per-site committed version history, ``(site, item) -> sorted
        #: [(vkey, Version)]``: every version ever applied at that site,
        #: surviving GC — the reference the snapshot-consistency rule
        #: resolves cuts against.
        self._site_versions: dict[tuple[int, str], list[tuple[tuple, "Version"]]] = {}
        #: ``(item, fanned-out sites)`` per logical write-all of each
        #: unfinished transaction (input to the ROWAA coverage check).
        self._logical_writes: dict[str, list[tuple[str, tuple[int, ...]]]] = {}
        #: NS freshness: site -> (last nonzero announcement, announcing txn).
        self._ns_announced: dict[int, tuple[int, str]] = {}
        self._check_coverage = getattr(system, "rowaa_config", None) is not None
        # WAL coherence state.
        self._durable_lsn_seen: dict[int, int] = {}
        self._pre_crash_fp: dict[int, str] = {}
        # Watchdog episodes: site -> (observation, since, already alerted).
        self._drain_state: dict[int, tuple[int, float, bool]] = {}
        self._copier_state: dict[int, tuple[tuple, float, bool]] = {}
        self._open_2pc: dict[int, typing.Any] = {}
        self._open_drains: dict[int, typing.Any] = {}
        self._span_cursor = 0
        #: Async commit decisions: txn_id -> {write site -> crash_count
        #: at decision time}, consumed by the matching drain hook.
        self._quorum_epochs: dict[str, dict[int, int]] = {}
        self._wire()

    # -- wiring ---------------------------------------------------------------

    def _wire(self) -> None:
        self.obs.audit = self
        self.kernel.probes.subscribe(
            admit=self._on_admit,
            read=self._on_read,
            snapshot_read=self._on_snapshot_read,
            apply=self._on_apply,
            logical_write=self._on_logical_write,
            txn_finish=self._on_txn_finish,
            drain_done=self._on_drain_done,
            wal_flush=self._on_wal,
            wal_checkpoint=self._on_wal,
            gc=self._on_gc,
            crash=self._on_crash,
            power_on=self._on_power_on,
            recovered=self._on_recovered,
        )
        self.obs.registry.add_collector(self._collect)
        self._watchdog_proc = self.kernel.process(
            self._watchdog(), name="protocol-auditor"
        )

    def stop(self) -> None:
        """End the watchdog process and run the final 1SR check
        (hook-driven checks stay live)."""
        if self._watchdog_proc.is_alive:
            self._watchdog_proc.interrupt("stop")
        self._check_one_sr()

    # -- alert plumbing -------------------------------------------------------

    def _alert(self, rule: str, severity: str, message: str, **kwargs) -> Alert | None:
        return self.alerts.record(
            rule, severity, self.kernel.now, message, **kwargs
        )

    # -- (1) online 1SR -------------------------------------------------------

    def _check_one_sr(self) -> None:
        """The candidate 1-STG of the committed history must be acyclic
        (§4 Corollary). The first cycle fires once; the graph is then
        uncertifiable for good, so later checks are skipped."""
        if self._cycle_found:
            return
        try:
            cycle = find_cycle(build_one_stg(self.recorder, db_item_filter))
        except NoCycle:
            return
        self._cycle_found = True
        nodes = sorted({node for edge in cycle for node in edge[:2]})
        self._alert(
            "onesr.cycle",
            "critical",
            "serialization graph cycle: the committed history is not "
            "certifiably one-serializable (§4)",
            txn_ids=tuple(nodes),
            details={"cycle": [list(e) for e in cycle]},
        )

    # -- (2) session coherence ------------------------------------------------

    def _on_admit(
        self, site_id: int, expected: int | None, privileged: bool, actual: int
    ) -> None:
        self.checks += 1
        if not privileged and expected is not None and expected != actual:
            self._alert(
                "session.check",
                "critical",
                "physical operation served with a stale session tag: "
                f"expected={expected} but as[{site_id}]={actual} (§3.1)",
                site=site_id,
                details={"expected": expected, "actual": actual},
                dedupe_key=(site_id, expected, actual),
            )

    def _ns_check(
        self, site_id: int, txn_id: str, item: str, value: object
    ) -> None:
        if not isinstance(value, int) or value == 0:
            return  # type-2 exclusion writes (0) carry no freshness claim
        k = ns_site(item)
        last = self._ns_announced.get(k)
        if last is not None:
            last_value, last_txn = last
            if value < last_value or (value == last_value and txn_id != last_txn):
                self._alert(
                    "session.ns_monotonic",
                    "critical",
                    f"control transaction installed NS[{k}]={value}, not "
                    f"fresher than {last_value} announced by {last_txn} (§3.3)",
                    site=site_id,
                    txn_ids=(txn_id,),
                    details={"ns_site": k, "value": value, "previous": last_value},
                    dedupe_key=(k, value, txn_id),
                )
                return
        self._ns_announced[k] = (value, txn_id)

    # -- (3) oracle / missing-list conservatism -------------------------------

    def _on_read(self, site_id: int, item: str, version: "Version") -> None:
        self.checks += 1
        latest = self._oracle.get(item)
        if latest is not None and _vkey(version) < _vkey(latest):
            self._alert(
                "oracle.stale_read",
                "critical",
                f"read of {item} served a stale unmarked copy "
                f"(version commit {version.commit} < oracle "
                f"{latest.commit}): unreadable marks do not cover the "
                "truly-stale copies (§5)",
                site=site_id,
                details={
                    "item": item,
                    "served_commit": version.commit,
                    "latest_commit": latest.commit,
                },
                dedupe_key=(site_id, item, version.commit),
            )

    def _on_apply(
        self,
        site_id: int,
        txn_id: str,
        kind: str,
        txn_seq: int,
        item: str,
        value: object,
        version: "Version",
        overridden: bool,
    ) -> None:
        self.checks += 1
        latest = self._oracle.get(item)
        if latest is None or _vkey(version) > _vkey(latest):
            self._oracle[item] = version
        self._record_site_version(site_id, item, version)
        if kind == "control" and not overridden and is_ns_item(item):
            self._ns_check(site_id, txn_id, item, value)

    # -- (6) multiversion snapshot reads --------------------------------------

    def _record_site_version(
        self, site_id: int, item: str, version: "Version"
    ) -> None:
        """Append to the site's committed version history (sorted, deduped)."""
        history = self._site_versions.setdefault((site_id, item), [])
        entry = (_vkey(version), version)
        index = bisect.bisect_left(history, entry[0], key=lambda e: e[0])
        if index < len(history) and history[index][0] == entry[0]:
            return
        history.insert(index, entry)

    def _site_floor(
        self, site_id: int, item: str, cut: tuple
    ) -> tuple[float, int]:
        """The newest vkey at-or-below ``cut`` ever applied at the site
        (the implicit initial version is the baseline)."""
        floor = (0.0, 0)  # Version.initial()
        history = self._site_versions.get((site_id, item), [])
        index = bisect.bisect_right(history, cut, key=lambda e: e[0])
        if index > 0:
            floor = history[index - 1][0]
        return floor

    def _on_snapshot_read(
        self, site_id: int, item: str, version: "Version", cut: tuple
    ) -> None:
        """Every snapshot read must serve exactly the site's newest
        committed version at-or-below the transaction's pinned cut.

        Site-local on purpose: local commits apply instantly while
        remote COMMITs ride the network, so the *global* latest at
        the cut may not have reached this site yet — that is the
        staleness the cut's ``D`` floor accounts for, not a bug.
        """
        self.checks += 1
        served = _vkey(version)
        if served > cut:
            self._alert(
                "mvcc.snapshot_consistency",
                "critical",
                f"snapshot read of {item} served commit "
                f"{version.commit} above the transaction's pinned cut "
                f"(ts {cut[0]:g}): the snapshot is not a committed "
                "prefix",
                site=site_id,
                details={
                    "item": item,
                    "served": list(served),
                    "cut": list(cut),
                },
                dedupe_key=(site_id, item, served, "above-cut"),
            )
            return
        expected = self._site_floor(site_id, item, cut)
        if served != expected:
            self._alert(
                "mvcc.snapshot_consistency",
                "critical",
                f"snapshot read of {item} served commit "
                f"{version.commit}, not the site's newest committed "
                f"version at-or-below the cut (expected commit "
                f"{expected[1]}): reads at one cut are not a single "
                "committed prefix",
                site=site_id,
                details={
                    "item": item,
                    "served": list(served),
                    "expected": list(expected),
                    "cut": list(cut),
                },
                dedupe_key=(site_id, item, served, expected),
            )

    def _on_gc(
        self, site_id: int, item: str, removed: list, pins: tuple, chain_before: list
    ) -> None:
        """GC must never reclaim a pinned cut's floor version, nor a
        chain's newest version (the floor of every future cut)."""
        self.checks += 1
        removed_keys = {_vkey(v) for v in removed}
        keys_before = [_vkey(v) for v in chain_before]
        if keys_before and keys_before[-1] in removed_keys:
            self._alert(
                "mvcc.gc_pinned",
                "critical",
                f"GC reclaimed the newest version of {item} "
                f"(commit {chain_before[-1].commit}): even an empty "
                "pin set must keep the chain head",
                site=site_id,
                details={"item": item, "removed": len(removed)},
                dedupe_key=(site_id, item, keys_before[-1]),
            )
        for pin in pins:
            index = bisect.bisect_right(keys_before, tuple(pin))
            if index == 0:
                continue
            floor = keys_before[index - 1]
            if floor in removed_keys:
                self._alert(
                    "mvcc.gc_pinned",
                    "critical",
                    f"GC reclaimed the floor version of {item} for an "
                    f"active pinned snapshot (cut ts {pin[0]:g}): the "
                    "pinned reader would now miss its version",
                    site=site_id,
                    details={
                        "item": item,
                        "pin": list(pin),
                        "floor": list(floor),
                    },
                    dedupe_key=(site_id, item, tuple(pin), floor),
                )

    def _on_recovered(self, site_id: int) -> None:
        """Operational instant: unreadable marks must cover stale copies."""
        site = self.system.cluster.sites[site_id]
        for item in site.copies.items():
            if is_ns_item(item):
                continue
            self.checks += 1
            copy = site.copies.get(item)
            latest = self._oracle.get(item)
            if latest is None or copy.unreadable:
                continue
            if _vkey(copy.version) < _vkey(latest):
                self._alert(
                    "missinglist.conservatism",
                    "critical",
                    f"site became operational with an unmarked stale copy of "
                    f"{item} (commit {copy.version.commit} < oracle "
                    f"{latest.commit}): identification under-populated the "
                    "missing set (§5)",
                    site=site_id,
                    details={
                        "item": item,
                        "copy_commit": copy.version.commit,
                        "latest_commit": latest.commit,
                    },
                    dedupe_key=(site_id, item, copy.version.commit),
                )

    # -- (4) ROWAA write coverage ---------------------------------------------

    def _on_logical_write(
        self, _home: int, txn_id: str, item: str, targets: tuple[int, ...]
    ) -> None:
        """One write-all fan-out: remembered until the transaction ends."""
        self._logical_writes.setdefault(txn_id, []).append((item, targets))

    def _on_txn_finish(self, _home: int, txn: Transaction) -> None:
        logical_writes = self._logical_writes.pop(txn.txn_id, ())
        if (
            self._check_coverage
            and txn.kind is TxnKind.USER
            and txn.status is TxnStatus.COMMITTED
        ):
            catalog = self.system.catalog
            for item, targets in logical_writes:
                self.checks += 1
                required = {
                    s
                    for s in catalog.sites_of(item)
                    if txn.view.get(s, 0) != 0
                }
                missing = required.difference(targets)
                if missing:
                    self._alert(
                        "rowaa.write_coverage",
                        "critical",
                        f"committed write of {item} skipped nominally-up "
                        f"copies at sites {sorted(missing)} (§2 "
                        "write-all-available)",
                        site=txn.home_site,
                        txn_ids=(txn.txn_id,),
                        details={
                            "item": item,
                            "missing": sorted(missing),
                            "targets": sorted(targets),
                        },
                    )
        if (
            txn.kind is TxnKind.USER
            and txn.status is TxnStatus.COMMITTED
            and txn.commit_mode == "async_quorum"
        ):
            self._check_quorum(txn)

    # -- (6) quorum commit soundness ------------------------------------------

    def _check_quorum(self, txn: Transaction) -> None:
        """Recompute the majority rule for a committed async transaction.

        The auditor derives ``needed`` independently from the catalog
        rather than trusting ``txn.quorum_needed``, so a bug in
        ``quorum_needed`` itself is caught too. It also snapshots each
        write site's crash epoch at decision time for the matching
        drain-completion check.
        """
        self.checks += 1
        catalog = self.system.catalog
        needed = 1
        for item in txn.written_items:
            residents = catalog.sites_of(item)
            if residents:
                needed = max(needed, len(residents) // 2 + 1)
        if txn.wrote_sites:
            needed = min(needed, len(txn.wrote_sites))
        prepared = txn.prepared_sites & txn.wrote_sites
        if len(prepared) < needed:
            self._alert(
                "quorum.majority",
                "critical",
                f"async commit decided with {len(prepared)} durably "
                f"prepared write sites, below the per-item majority "
                f"threshold of {needed}",
                site=txn.home_site,
                txn_ids=(txn.txn_id,),
                details={
                    "prepared": sorted(prepared),
                    "write_sites": sorted(txn.wrote_sites),
                    "needed": needed,
                },
            )
        sites = self.system.cluster.sites
        self._quorum_epochs[txn.txn_id] = {
            site_id: sites[site_id].crash_count
            for site_id in txn.wrote_sites
            if site_id in sites
        }

    def _on_drain_done(
        self,
        _home: int,
        txn: Transaction,
        acked: tuple[int, ...],
        lost: tuple[int, ...],
    ) -> None:
        """A drain gave up on ``lost`` — sound only under crash cover.

        The drain's give-up path delegates a lagging site to recovery
        (stable decision record + marks + ``wal.ship``), which only
        runs if the site actually went down. A lost site whose crash
        epoch never moved since the decision — it stayed up the whole
        time — has no recovery coming: the committed write would be
        silently missing from a live copy.
        """
        epochs = self._quorum_epochs.pop(txn.txn_id, {})
        for site_id in lost:
            self.checks += 1
            site = self.system.cluster.sites.get(site_id)
            if site is None:
                continue
            if not site.is_down and site.crash_count == epochs.get(site_id, -1):
                self._alert(
                    "quorum.drain_uncovered",
                    "critical",
                    f"async drain of {txn.txn_id} abandoned site {site_id} "
                    "which never crashed since the decision: the write is "
                    "missing there with no recovery pass coming",
                    site=site_id,
                    txn_ids=(txn.txn_id,),
                    details={
                        "lost": sorted(lost),
                        "acked": sorted(acked),
                        "decision_epoch": epochs.get(site_id),
                    },
                )

    # -- (5) WAL / durable coherence ------------------------------------------

    def _on_wal(self, site_id: int) -> None:
        """After every group commit and every checkpoint of a site's WAL."""
        self.checks += 1
        wal = self.system.cluster.sites[site_id].wal
        lsn = wal.log.durable_lsn
        seen = self._durable_lsn_seen.get(site_id, 0)
        if lsn < seen:
            self._alert(
                "wal.durable_monotonic",
                "critical",
                f"durable LSN regressed from {seen} to {lsn}",
                site=site_id,
                details={"seen": seen, "lsn": lsn},
                dedupe_key=(site_id, lsn),
            )
        else:
            self._durable_lsn_seen[site_id] = lsn
        if wal.last_checkpoint_lsn > lsn:
            self._alert(
                "wal.checkpoint_bound",
                "critical",
                f"checkpoint LSN {wal.last_checkpoint_lsn} exceeds "
                f"durable LSN {lsn}",
                site=site_id,
                details={
                    "checkpoint_lsn": wal.last_checkpoint_lsn,
                    "durable_lsn": lsn,
                },
                dedupe_key=(site_id, wal.last_checkpoint_lsn),
            )

    def _on_crash(self, site_id: int) -> None:
        # The ``crash`` probe fires after the site's own crash hooks
        # (the WAL's among them), so the volatile tail is already
        # discarded: this hashes exactly the durable image restore
        # must rebuild.
        fingerprint = self._durable_fingerprint(self.system.cluster.sites[site_id])
        if fingerprint is not None:
            self._pre_crash_fp[site_id] = fingerprint

    def _on_power_on(self, site_id: int) -> None:
        # Site.power_on runs wal.restore() before the probe fires.
        expected = self._pre_crash_fp.pop(site_id, None)
        if expected is None:
            return
        self.checks += 1
        actual = self._state_fingerprint(self.system.cluster.sites[site_id])
        if actual != expected:
            self._alert(
                "wal.replay_fingerprint",
                "critical",
                "restored state diverges from the pre-crash durable "
                "image (checkpoint + log replay is not faithful)",
                site=site_id,
                details={"expected": expected, "actual": actual},
            )

    def _durable_fingerprint(self, site: "Site") -> str | None:
        """Hash of the state reconstructible from checkpoint + log.

        An independent mirror of :meth:`SiteWal.restore` (same record
        semantics, no shared code) so replay bugs can't hide in a shared
        implementation. The image is assembled here from the checkpoint
        header and the per-item blobs; chain tails are not fingerprinted.
        """
        stable = site.stable
        checkpoint = typing.cast("dict | None", stable.get(CHECKPOINT_KEY))
        if checkpoint is None:
            return None
        items = {}
        for key in stable.keys():
            if key.startswith(CHECKPOINT_ITEM_PREFIX):
                value, version, unreadable, _tail = typing.cast(
                    tuple, stable.get(key)
                )
                items[key[len(CHECKPOINT_ITEM_PREFIX):]] = (
                    value, version, unreadable
                )
        session_last = checkpoint["session_last"]
        session_started = checkpoint["session_started_at"]
        stale = checkpoint["stale_table"]
        decided = checkpoint["decided"]
        for record in site.wal.log.records_after(checkpoint["lsn"]):
            if record.kind == "write":
                items[record.item] = (record.value, record.version, False)
            elif record.kind == "mark":
                if record.item in items:
                    value, version, _ = items[record.item]
                    items[record.item] = (value, version, True)
            elif record.kind == "clear":
                if record.item in items:
                    value, version, _ = items[record.item]
                    items[record.item] = (value, version, False)
            elif record.kind == "session":
                session_last = record.session
                if record.session_started_at is not None:
                    session_started = record.session_started_at
            elif record.kind == "stale":
                version = record.version and tuple(record.version)
                for missed in record.missed_sites:
                    stale[(record.item, missed)] = (record.value, version)
            elif record.kind == "unstale":
                for applied in record.applied_sites:
                    stale.pop((record.item, applied), None)
            elif record.kind == "decision":
                decided[record.txn_id] = record.version
        return self._fingerprint(items, session_last, session_started, stale, decided)

    def _state_fingerprint(self, site: "Site") -> str:
        """Hash of the live copies + the WAL's mirrors (post-restore)."""
        items = {}
        for name in site.copies.items():
            copy = site.copies.get(name)
            items[name] = (copy.value, copy.version, copy.unreadable)
        wal = site.wal
        return self._fingerprint(
            items, wal.session_last, wal.session_started_at, wal.stale_table, wal.decided
        )

    @staticmethod
    def _fingerprint(
        items: dict, session_last: object, session_started: object, stale: dict, decided: dict
    ) -> str:
        digest = hashlib.sha256()
        for name in sorted(items):
            value, version, unreadable = items[name]
            normalized = tuple(version) if version is not None else None
            digest.update(
                repr((name, value, normalized, bool(unreadable))).encode()
            )
        digest.update(repr(("session", session_last, session_started)).encode())
        digest.update(repr(sorted(stale.items())).encode())
        digest.update(repr(sorted((txn, tuple(v)) for txn, v in decided.items())).encode())
        return digest.hexdigest()

    # -- liveness watchdogs ---------------------------------------------------

    def _watchdog(self) -> typing.Generator:
        while True:
            try:
                yield self.kernel.timeout(WATCHDOG_INTERVAL)
            except Interrupt:
                return  # stop()
            now = self.kernel.now
            self._watch_drain(now)
            self._watch_copiers(now)
            self._watch_spans(now)

    def _unreadable_count(self, site: "Site") -> int:
        return unreadable_db_count(site.copies, self.system.cluster.site_ids)

    def _watch_drain(self, now: float) -> None:
        for site_id, site in self.system.cluster.sites.items():
            count = self._unreadable_count(site)
            state = self._drain_state.get(site_id)
            if not site.is_operational or count == 0 or (
                state is not None and state[0] != count
            ):
                self._drain_state[site_id] = (count, now, False)
                continue
            if state is None:
                self._drain_state[site_id] = (count, now, False)
                continue
            _, since, alerted = state
            if not alerted and now - since >= DRAIN_STALL_BUDGET:
                self._alert(
                    "liveness.drain_stall",
                    "warning",
                    f"{count} unreadable copies have not drained for "
                    f"{now - since:.0f} sim-time units at an operational site",
                    site=site_id,
                    details={"count": count, "stalled_for": now - since},
                )
                self._drain_state[site_id] = (count, since, True)

    def _watch_copiers(self, now: float) -> None:
        for site_id, copier in getattr(self.system, "copiers", {}).items():
            site = self.system.cluster.sites[site_id]
            pending = self._unreadable_count(site)
            signature = dataclasses.astuple(copier.stats)
            state = self._copier_state.get(site_id)
            if not site.is_operational or pending == 0 or (
                state is not None and state[0] != signature
            ):
                self._copier_state[site_id] = (signature, now, False)
                continue
            if state is None:
                self._copier_state[site_id] = (signature, now, False)
                continue
            _, since, alerted = state
            if not alerted and now - since >= COPIER_STALL_BUDGET:
                self._alert(
                    "liveness.copier_starved",
                    "warning",
                    f"copier made no progress for {now - since:.0f} sim-time "
                    f"units with {pending} copies pending",
                    site=site_id,
                    details={"pending": pending, "starved_for": now - since},
                )
                self._copier_state[site_id] = (signature, since, True)

    def _watch_spans(self, now: float) -> None:
        """Budget 2PC and async-drain spans (one shared cursor pass)."""
        if not self.obs.spans_on:
            return
        spans = self.obs.spans.spans
        while self._span_cursor < len(spans):
            span = spans[self._span_cursor]
            self._span_cursor += 1
            if span.end is not None:
                continue
            if span.category == "2pc":
                self._open_2pc[span.span_id] = span
            elif span.category == "drain":
                self._open_drains[span.span_id] = span
        self._budget_spans(
            now, self._open_2pc, TWOPC_BUDGET,
            "liveness.twopc_overrun", "2PC",
        )
        self._budget_spans(
            now, self._open_drains, DRAIN_BUDGET,
            "liveness.drain_overrun", "async drain",
        )

    def _budget_spans(
        self,
        now: float,
        open_spans: dict[int, typing.Any],
        budget: float,
        rule: str,
        label: str,
    ) -> None:
        for span_id, span in list(open_spans.items()):
            if span.end is not None:
                del open_spans[span_id]
            elif now - span.start > budget:
                self._alert(
                    rule,
                    "warning",
                    f"{label} open for {now - span.start:.0f} sim-time units "
                    f"(budget {budget:.0f})",
                    site=span.site_id,
                    txn_ids=(span.txn_id,) if span.txn_id else (),
                    span_id=span_id,
                    details={"open_for": now - span.start},
                )
                del open_spans[span_id]

    # -- metrics / reporting --------------------------------------------------

    def _collect(self) -> dict:
        return {
            ("audit.alerts", None): float(len(self.alerts.alerts)),
            ("audit.alerts_critical", None): float(self.alerts.count("critical")),
            ("audit.alerts_warning", None): float(self.alerts.count("warning")),
            ("audit.checks", None): float(self.checks),
        }

    def summary(self) -> dict:
        """Auditor section of the recovery-timeline report."""
        self._check_one_sr()
        return {
            "alerts": len(self.alerts.alerts),
            "critical": self.alerts.count("critical"),
            "warning": self.alerts.count("warning"),
            "by_rule": {
                rule: len(alerts) for rule, alerts in self.alerts.by_rule().items()
            },
            "checks": self.checks,
        }


def attach_auditor(system: "DatabaseSystem") -> ProtocolAuditor:
    """Attach a :class:`ProtocolAuditor` to a built (idle) system.

    Idempotent: a system audits at most once. Attach after construction
    and before driving load — the oracle assumes it observes every
    commit.
    """
    existing = system.obs.audit
    if existing is not None:
        return existing
    return ProtocolAuditor(system)
