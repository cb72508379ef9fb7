"""Assembly of a complete replicated database system.

:class:`DatabaseSystem` wires the substrates together — cluster, catalog,
copy stores, history recorder, per-site DM/TM, global deadlock detector —
parameterized by a replication strategy. The paper's full protocol
(sessions + control transactions + recovery procedure) is assembled on
top by :class:`repro.core.system.RowaaSystem`; the baselines use this
class directly.
"""

from __future__ import annotations

import typing

from repro.errors import TransactionAborted
from repro.histories.recorder import HistoryRecorder
from repro.net.latency import LatencyModel
from repro.obs import Observability
from repro.obs.instrument import instrument_system
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.site.cluster import Cluster
from repro.storage.catalog import Catalog
from repro.txn.config import TxnConfig
from repro.txn.data_manager import DataManager
from repro.txn.deadlock import GlobalDeadlockDetector
from repro.txn.manager import TransactionManager, TxnProgram
from repro.txn.strategy import ReplicationStrategy
from repro.txn.transaction import TxnKind
from repro.wal import WalConfig

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mvcc import MultiVersionStore, SnapshotManager

#: Pause before :meth:`DatabaseSystem.submit_with_retry` retries an
#: aborted transaction.
RETRY_DELAY = 5.0

StrategyFactory = typing.Callable[["DatabaseSystem"], ReplicationStrategy]


class DatabaseSystem:
    """A running replicated DDBS instance inside one simulation kernel.

    Parameters
    ----------
    kernel:
        The simulation kernel.
    n_sites:
        Sites are numbered ``1..n_sites``.
    items:
        Mapping of logical item name to initial value. Every copy starts
        with this value at version 0 (written by the implicit initial
        transaction of §4's augmented history).
    strategy_factory:
        Called with the partially built system; returns the replication
        strategy shared by all TMs.
    catalog:
        Copy placement; defaults to full replication of ``items``.
    config:
        Transaction-substrate tunables.
    latency, detection_delay, loss_probability:
        Forwarded to the cluster/network.
    concurrency:
        ``"2pl"`` (strict two-phase locking, default) or ``"to"``
        (timestamp ordering) — the recovery protocol composes with
        either (§1's "large group of concurrency control algorithms").
    """

    def __init__(
        self,
        kernel: Kernel,
        n_sites: int,
        items: dict[str, object],
        strategy_factory: StrategyFactory,
        catalog: Catalog | None = None,
        config: TxnConfig | None = None,
        latency: LatencyModel | None = None,
        detection_delay: float = 5.0,
        loss_probability: float = 0.0,
        concurrency: str = "2pl",
        obs: Observability | None = None,
        wal_config: "WalConfig | None" = None,
    ) -> None:
        from repro.net.messages import reset_msg_counter
        from repro.txn.transaction import reset_txn_counter

        reset_txn_counter()
        reset_msg_counter()
        self.kernel = kernel
        self.config = config if config is not None else TxnConfig()
        if concurrency == "to" and self.config.commit_mode == "async_quorum":
            # The async safety argument leans on strict 2PL holding X
            # locks until the drained apply lands; TO has no such fence.
            raise ValueError("commit_mode='async_quorum' requires 2PL concurrency")
        self.obs = obs if obs is not None else Observability(kernel)
        self.cluster = Cluster(
            kernel,
            n_sites,
            latency=latency,
            detection_delay=detection_delay,
            loss_probability=loss_probability,
            obs=self.obs,
            wal_config=wal_config,
        )
        self.catalog = (
            catalog
            if catalog is not None
            else Catalog.fully_replicated(self.cluster.site_ids, items)
        )
        self.recorder = HistoryRecorder()
        self.items = dict(items)

        for item, value in items.items():
            for site_id in self.catalog.sites_of(item):
                self.cluster.site(site_id).copies.create(item, value)
        # Genesis checkpoint: the initial database image is durable from
        # the start, so every later power-on can rebuild purely from
        # checkpoint + log replay.
        for site_id in self.cluster.site_ids:
            self.cluster.site(site_id).wal.checkpoint()

        if concurrency == "2pl":
            dm_class = DataManager
        elif concurrency == "to":
            from repro.txn.timestamp import TimestampDataManager

            dm_class = TimestampDataManager
        else:
            raise ValueError(f"unknown concurrency control {concurrency!r}")
        self.concurrency = concurrency
        self.dms: dict[int, DataManager] = {
            site_id: dm_class(kernel, self.cluster.site(site_id), self.recorder, self.config)
            for site_id in self.cluster.site_ids
        }
        self.strategy = strategy_factory(self)
        self.tms: dict[int, TransactionManager] = {
            site_id: TransactionManager(
                kernel,
                self.cluster.site(site_id),
                self.catalog,
                self.strategy,
                self.recorder,
                self.config,
            )
            for site_id in self.cluster.site_ids
        }
        if concurrency == "to":
            for tm in self.tms.values():
                tm.version_policy = "timestamp"
        self.deadlock_detector = GlobalDeadlockDetector(kernel, self._live_lock_managers)
        # Detector-driven 2PC termination: when a site is declared down
        # or announces recovery, every DM promptly resolves the
        # transactions it coordinated (instead of waiting out the
        # periodic watcher's timeout) — the up-transition path is what
        # unblocks in-doubt prepared participants the moment their
        # coordinator's stable decision log is reachable again.
        for site_id, dm in self.dms.items():
            detector = self.cluster.detector(site_id)
            detector.on_down(
                lambda changed, dm=dm: dm.resolve_coordinated_by(changed)
            )
            detector.on_up(
                lambda changed, dm=dm: dm.resolve_coordinated_by(changed)
            )
        instrument_system(self)

    @property
    def snapshots(self) -> dict[int, "SnapshotManager"]:
        """The snapshot managers of the sites that have taken a snapshot."""
        return {
            site_id: tm.snapshots
            for site_id, tm in self.tms.items()
            if tm.snapshots is not None
        }

    @property
    def mvcc(self) -> dict[int, "MultiVersionStore"]:
        """The version stores of the same sites as :attr:`snapshots`."""
        return {site_id: manager.store for site_id, manager in self.snapshots.items()}

    def _live_lock_managers(self):
        return [
            dm.lock_manager
            for site_id, dm in self.dms.items()
            if not self.cluster.site(site_id).is_down
        ]

    # -- lifecycle ------------------------------------------------------------

    def boot(self) -> None:
        """Cold boot: all sites come up operational with fresh copies."""
        self.cluster.boot_all()

    def stop(self) -> None:
        """Stop housekeeping processes so ``kernel.run()`` can drain."""
        self.deadlock_detector.stop()
        for store in self.mvcc.values():
            store.stop_gc()
        if self.obs.sampler is not None:
            self.obs.sampler.stop()
        if self.obs.audit is not None:
            self.obs.audit.stop()

    def crash(self, site_id: int) -> None:
        """Inject a crash at ``site_id``."""
        self.cluster.crash_site(site_id)

    def power_on(self, site_id: int) -> object:
        """Bring a crashed site back per this system's recovery protocol.

        The base implementation is *instant* recovery — power on and
        immediately accept user transactions — which is correct for
        strict ROWA (a down site's copies never miss writes) and quorum
        (stale copies are outvoted), and is exactly the bug for the
        naive baseline. Protocols with a real recovery procedure
        (ROWAA §3.4, directories, spooler) override this.
        """
        self.cluster.power_on_site(site_id)
        self.cluster.site(site_id).become_operational()
        self.cluster.notify_recovered(site_id)
        return None

    # -- introspection ---------------------------------------------------------

    def copy_value(self, site_id: int, item: str) -> object:
        """Direct (non-transactional) peek at a committed copy value."""
        return self.cluster.site(site_id).copies.get(item).value

    # -- transaction entry points ----------------------------------------------

    def submit(
        self, site_id: int, program: TxnProgram, kind: TxnKind = TxnKind.USER
    ) -> Process:
        """Run ``program`` as a single transaction attempt at ``site_id``."""
        return self.tms[site_id].submit(program, kind)

    def submit_with_retry(
        self,
        site_id: int,
        program: TxnProgram,
        attempts: int = 3,
    ) -> Process:
        """Run a user transaction, retrying aborts as fresh transactions.

        Retries matter to the protocol: an abort caused by a stale view
        (session mismatch) is transient — the retry re-reads the nominal
        session vector and sees the new configuration.
        """

        def body():
            last: TransactionAborted | None = None
            for _attempt in range(attempts):
                try:
                    result = yield from self.tms[site_id].run(program)
                    return result
                except TransactionAborted as exc:
                    last = exc
                    yield self.kernel.timeout(RETRY_DELAY)
            assert last is not None
            raise last

        return self.cluster.site(site_id).spawn(body(), name="txn-retry")
