"""The fully assembled ROWAA system (paper protocol, end to end).

:class:`RowaaSystem` extends the generic
:class:`~repro.system.DatabaseSystem` with everything §3 adds:

* nominal session numbers as fully replicated items (``NS[1..n]``);
* per-site session managers (``as[k]`` + stable last-used number);
* the ROWAA strategy as the logical-operation interpreter;
* per-site copier services (eager/demand per configuration);
* per-site control services (automatic type-2 on failure detection);
* per-site recovery managers running the §3.4 procedure, started
  automatically by :meth:`power_on`;
* the chosen §5 identification policy; a stale-copy table is wired into
  every DM as its stale tracker.
"""

from __future__ import annotations

import typing

from repro.core.config import RowaaConfig
from repro.core.control import ControlService
from repro.core.copier import CopierService
from repro.core.identify import IdentificationPolicy, MarkAllPolicy, StaleTracker
from repro.core.nominal import ns_item, unreadable_db_count
from repro.core.recovery import RecoveryManager, RecoveryRecord
from repro.core.rowaa import RowaaStrategy
from repro.core.session import SessionManager

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.wal import WalConfig
from repro.net.latency import LatencyModel
from repro.obs.instrument import instrument_rowaa
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.storage.catalog import Catalog
from repro.system import DatabaseSystem
from repro.txn.config import TxnConfig

INITIAL_SESSION = 1


class RowaaSystem(DatabaseSystem):
    """A replicated DDBS running the paper's recovery protocol."""

    #: What runs §3.4 at each site; the spooler baseline swaps it.
    recovery_class = RecoveryManager

    def __init__(
        self,
        kernel: Kernel,
        n_sites: int,
        items: dict[str, object],
        catalog: Catalog | None = None,
        config: TxnConfig | None = None,
        rowaa_config: RowaaConfig | None = None,
        latency: LatencyModel | None = None,
        detection_delay: float = 5.0,
        loss_probability: float = 0.0,
        concurrency: str = "2pl",
        obs: "Observability | None" = None,
        wal_config: "WalConfig | None" = None,
    ) -> None:
        self.rowaa_config = rowaa_config if rowaa_config is not None else RowaaConfig()

        site_ids = list(range(1, n_sites + 1))
        all_items = dict(items)
        for site_id in site_ids:
            name = ns_item(site_id)
            if name in all_items:
                raise ValueError(f"item name {name!r} is reserved for session numbers")
            all_items[name] = INITIAL_SESSION

        if catalog is not None:
            for site_id in site_ids:
                catalog.add_item(ns_item(site_id), site_ids)  # NS fully replicated
        else:
            catalog = Catalog(site_ids)
            for item in items:
                catalog.add_item(item, site_ids)
            for site_id in site_ids:
                catalog.add_item(ns_item(site_id), site_ids)

        super().__init__(
            kernel,
            n_sites,
            all_items,
            strategy_factory=lambda _system: RowaaStrategy(),
            catalog=catalog,
            config=config,
            latency=latency,
            detection_delay=detection_delay,
            loss_probability=loss_probability,
            concurrency=concurrency,
            obs=obs,
            wal_config=wal_config,
        )

        self.sessions: dict[int, SessionManager] = {}
        self.copiers: dict[int, CopierService] = {}
        self.controls: dict[int, ControlService] = {}
        self.recoveries: dict[int, RecoveryManager] = {}
        self.policies: dict[int, IdentificationPolicy] = {}

        for site_id in self.cluster.site_ids:
            site = self.cluster.site(site_id)
            dm = self.dms[site_id]
            tm = self.tms[site_id]
            session = SessionManager(site, dm)
            policy = self._make_policy(site)
            if isinstance(policy, StaleTracker):
                dm.stale_tracker = policy
            copiers = CopierService(kernel, site, dm, tm, self.rowaa_config)
            control = ControlService(site, tm, self.cluster)
            recovery = self.recovery_class(
                kernel, site, tm, session, self.catalog, self.cluster, copiers, policy
            )
            self.sessions[site_id] = session
            self.policies[site_id] = policy
            self.copiers[site_id] = copiers
            self.controls[site_id] = control
            self.recoveries[site_id] = recovery

        self.cluster.recovered_hooks.append(self._on_any_recovery)
        instrument_rowaa(self)

    def _on_any_recovery(self, recovered_site: int) -> None:
        # A fresh source of readable copies may unblock copiers that hit
        # "totally failed" earlier — re-kick every other site's service.
        for site_id, service in self.copiers.items():
            if site_id != recovered_site:
                service.retry_unreadable()

    def _make_policy(self, site) -> IdentificationPolicy:
        mode = self.rowaa_config.identify_mode
        if mode == "mark-all":
            return MarkAllPolicy()
        if mode in ("fail-locks", "missing-lists"):
            return StaleTracker(site, durable=mode == "fail-locks")
        raise ValueError(f"unknown identify_mode {mode!r}")

    # -- lifecycle -------------------------------------------------------------

    def boot(self) -> None:
        """Cold boot: every site starts operational in session 1."""
        super().boot()
        now = self.kernel.now
        for site_id, session in self.sessions.items():
            first = session.choose_next()
            assert first == INITIAL_SESSION
            session.activate(first, now)

    def power_on(self, site_id: int) -> Process:
        """Reboot a crashed site and run the §3.4 recovery procedure.

        Returns the recovery process; its value is the
        :class:`~repro.core.recovery.RecoveryRecord`.
        """
        self.cluster.power_on_site(site_id)
        return self.recoveries[site_id].start()

    # -- introspection helpers (tests, experiments, examples) ---------------------

    def nominal_view(self, site_id: int) -> dict[int, int]:
        """Site ``site_id``'s local copies of the nominal session vector."""
        copies = self.cluster.site(site_id).copies
        return {
            other: int(copies.get(ns_item(other)).value)  # type: ignore[call-overload]
            for other in self.cluster.site_ids
        }

    def recovery_records(self) -> list[RecoveryRecord]:
        """All recovery records across sites, in start order."""
        records = [
            record for manager in self.recoveries.values() for record in manager.records
        ]
        return sorted(records, key=lambda record: record.power_on_at)

    def unreadable_counts(self) -> dict[int, int]:
        """Per-site count of unreadable (non-NS) copies."""
        site_ids = self.cluster.site_ids
        return {
            site_id: unreadable_db_count(self.cluster.site(site_id).copies, site_ids)
            for site_id in site_ids
        }
