"""A single database site: runtime state, lifecycle, crash semantics."""

from __future__ import annotations

import enum
import typing

from repro.errors import InvalidStateTransition
from repro.net.network import Network
from repro.net.rpc import RpcNode
from repro.obs import Observability
from repro.sim.kernel import Kernel
from repro.sim.process import Process, defuse_signal, is_signal
from repro.storage.copies import CopyStore
from repro.storage.stable import StableStorage
from repro.wal import SiteWal, WalConfig

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mvcc import MultiVersionStore


class SiteStatus(enum.Enum):
    """The three distinguishable states of §3.1.

    ``DOWN``: no DDBS activity. ``RECOVERING``: TM/DM on for control
    transactions, user transactions refused. ``UP``: fully operational.
    """

    DOWN = "down"
    RECOVERING = "recovering"
    UP = "up"


class Site:
    """Per-site runtime: RPC, storage, background processes, lifecycle.

    Database components (DM, TM, recovery manager) attach themselves via
    handlers on :attr:`rpc` and via the crash/power-on hook lists. The
    site itself is protocol-agnostic substrate.
    """

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        site_id: int,
        obs: "Observability | None" = None,
        wal_config: WalConfig | None = None,
    ) -> None:
        self.kernel = kernel
        self.site_id = site_id
        #: Shared observability bundle; components living on this site
        #: (DM, TM, copier, recovery) reach it as ``self.site.obs``.
        self.obs = obs if obs is not None else Observability(kernel)
        self.rpc = RpcNode(kernel, network, site_id, obs=self.obs)
        self.stable = StableStorage()
        self.copies = CopyStore(site_id)
        self.status = SiteStatus.DOWN
        #: Wiring, not probes: the components that must reset or re-arm
        #: with the site (WAL, DM, TM, copier, ...). Observers subscribe
        #: to the kernel's ``crash`` / ``power_on`` probes instead, which
        #: fire after every one of these ran.
        self.crash_hooks: list[typing.Callable[[], None]] = []
        self.power_on_hooks: list[typing.Callable[[], None]] = []
        #: Durability layer: journals committed copy mutations and, at
        #: power-on, rebuilds copies/session state from checkpoint + log
        #: replay.
        self.wal = SiteWal(self, wal_config)
        #: Version chains for snapshot reads; built by the site's first
        #: ``beginRO`` (``TransactionManager.snapshot_manager``).
        self.mvcc: "MultiVersionStore | None" = None
        # Insertion-ordered dict-as-set: a plain set would interrupt the
        # procs in id-hash order on crash(), which varies across
        # interpreter runs (tests/test_hash_seed.py).
        self._procs: dict[Process, None] = {}
        # Lifecycle bookkeeping for recovery-latency metrics (E2).
        self.last_crash_time: float | None = None
        self.last_power_on_time: float | None = None
        self.crash_count = 0

    # -- state queries ------------------------------------------------------

    @property
    def is_down(self) -> bool:
        return self.status is SiteStatus.DOWN

    @property
    def is_operational(self) -> bool:
        """True only in the UP state (the paper's "operational")."""
        return self.status is SiteStatus.UP

    # -- background processes --------------------------------------------------

    def spawn(self, generator: typing.Generator, name: str = "") -> Process:
        """Run a process that dies with the site.

        The process is killed (interrupted) on :meth:`crash`. A failure
        by a protocol signal (:func:`is_signal`: the crash's interrupt,
        an abort, an RPC failure) is defused; any other — a bug — that
        no caller waits on reaches the kernel's unhandled-failure path
        (DESIGN.md §5, "No unobserved failure").
        """
        proc = self.kernel.process(
            generator, f"site{self.site_id}:{name}", self._spawned_exited
        )
        self._procs[proc] = None
        return proc

    def adopt(self, generator: typing.Generator, name: str = "") -> Process:
        """:meth:`spawn` for a caller that is itself the event in which
        the process is due to start (:meth:`Kernel.adopt`): the first step
        runs before this returns, and neither the start nor the
        completion is a kernel event. Not awaitable, so a failure that is
        not a signal is always unobserved."""
        proc = self.kernel.adopt(generator, self._adopted_exited, f"site{self.site_id}:{name}")
        if proc.is_alive:
            self._procs[proc] = None
        return proc

    def _spawned_exited(self, proc: Process) -> None:
        self._procs.pop(proc, None)
        defuse_signal(proc)

    def _adopted_exited(self, proc: Process) -> None:
        self._procs.pop(proc, None)
        exc = proc.exception
        if exc is not None and not is_signal(exc):
            self.kernel.report_unhandled(proc)

    # -- lifecycle ----------------------------------------------------------------

    def power_on(self) -> None:
        """DOWN → RECOVERING: turn on TM/DM for control transactions (§3.4/1)."""
        if self.status is not SiteStatus.DOWN:
            raise InvalidStateTransition(
                f"site {self.site_id}: power_on in state {self.status.value}"
            )
        self.status = SiteStatus.RECOVERING
        self.last_power_on_time = self.kernel.now
        if self.crash_count > 0:
            # Restart-by-replay happens before any component (RPC
            # handlers, power-on hooks) can observe the site's state.
            # Installation boot (never crashed) has nothing to replay.
            self.wal.restore()
        self.rpc.start()
        for hook in list(self.power_on_hooks):
            hook()
        for fn in self.kernel.probes.power_on:
            fn(self.site_id)

    def become_operational(self) -> None:
        """RECOVERING → UP (recovery step 4, after type-1 commit)."""
        if self.status is not SiteStatus.RECOVERING:
            raise InvalidStateTransition(
                f"site {self.site_id}: become_operational in state {self.status.value}"
            )
        self.status = SiteStatus.UP

    def crash(self) -> None:
        """Crash-stop: volatile state is lost, stable state survives.

        Idempotent on an already-down site only in the sense that it is an
        error — callers (the cluster) guard against double crashes.
        """
        if self.status is SiteStatus.DOWN:
            raise InvalidStateTransition(f"site {self.site_id} is already down")
        self.status = SiteStatus.DOWN
        self.last_crash_time = self.kernel.now
        self.crash_count += 1
        self.rpc.stop()
        for proc in list(self._procs):
            if proc.is_alive:
                proc.interrupt("site-crash")
        self._procs.clear()
        for hook in list(self.crash_hooks):
            hook()
        for fn in self.kernel.probes.crash:
            fn(self.site_id)

    def __repr__(self) -> str:
        return f"<Site {self.site_id} {self.status.value}>"
