"""Cluster assembly: kernel + network + sites + ground-truth failure feed."""

from __future__ import annotations

import typing

from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.obs import Observability
from repro.sim.kernel import Kernel
from repro.site.detector import FailureDetector
from repro.site.site import Site, SiteStatus
from repro.wal import WalConfig


class Cluster:
    """The physical system: n sites on one network.

    The cluster is the *ground truth* for liveness. Crash and restart are
    injected here; each surviving site's :class:`FailureDetector` is
    notified ``detection_delay`` later, modeling timeout-based detection
    that is sound under the crash-only failure model (§3.3).

    Parameters
    ----------
    kernel:
        Simulation kernel.
    n_sites:
        Sites are numbered ``1..n_sites`` (matching the paper's
        ``NS[1..n]`` notation).
    latency:
        Network latency model (defaults to the network's default).
    detection_delay:
        How long after a crash each surviving site's detector fires.
    """

    def __init__(
        self,
        kernel: Kernel,
        n_sites: int,
        latency: LatencyModel | None = None,
        detection_delay: float = 5.0,
        loss_probability: float = 0.0,
        obs: Observability | None = None,
        wal_config: WalConfig | None = None,
    ) -> None:
        if n_sites < 1:
            raise ValueError(f"need at least one site, got {n_sites}")
        self.kernel = kernel
        self.obs = obs if obs is not None else Observability(kernel)
        self.network = Network(kernel, latency=latency, loss_probability=loss_probability)
        self.detection_delay = detection_delay
        self.sites: dict[int, Site] = {
            site_id: Site(
                kernel, self.network, site_id, obs=self.obs, wal_config=wal_config
            )
            for site_id in range(1, n_sites + 1)
        }
        self.detectors: dict[int, FailureDetector] = {
            site_id: FailureDetector(site_id, self.site_ids) for site_id in self.sites
        }
        #: Called with the recovered site id after each recovery
        #: announcement (wiring: re-kicks stalled copiers); observers use
        #: the kernel's ``recovered`` probe, which fires after these.
        self.recovered_hooks: list[typing.Callable[[int], None]] = []

    # -- queries -------------------------------------------------------------

    @property
    def site_ids(self) -> list[int]:
        return sorted(self.sites)

    def site(self, site_id: int) -> Site:
        return self.sites[site_id]

    def detector(self, site_id: int) -> FailureDetector:
        return self.detectors[site_id]

    def operational_sites(self) -> list[int]:
        """Ground truth: sites currently in the UP state."""
        return [sid for sid, site in self.sites.items() if site.is_operational]

    def powered_sites(self) -> list[int]:
        """Sites that are UP or RECOVERING (their TM/DM are on)."""
        return [sid for sid, site in self.sites.items() if not site.is_down]

    # -- boot -----------------------------------------------------------------

    def boot_all(self) -> None:
        """Initial cold boot: every site comes up directly as operational.

        This models system installation, before which no updates exist, so
        no copy can be stale; the paper's recovery procedure only governs
        *re*-joining after a crash.
        """
        for site in self.sites.values():
            site.power_on()
            site.status = SiteStatus.UP

    # -- failure injection -------------------------------------------------------

    def crash_site(self, site_id: int) -> None:
        """Crash ``site_id`` now and schedule detector notifications."""
        site = self.sites[site_id]
        site.crash()
        self.detectors[site_id].reset(())
        for other_id, detector in self.detectors.items():
            if other_id == site_id:
                continue
            self.kernel.call_soon(
                self._notify_down, other_id, site_id, delay=self.detection_delay
            )

    def _notify_down(self, observer_id: int, crashed_id: int) -> None:
        # Only live observers can detect, and only if the crashed site has
        # not already announced itself up again via recovery.
        observer = self.sites[observer_id]
        crashed = self.sites[crashed_id]
        if observer.is_down:
            return
        if not crashed.is_down:
            return  # recovered before this observer's timeout fired
        self.detectors[observer_id].mark_down(crashed_id)

    def power_on_site(self, site_id: int) -> None:
        """Power a crashed site back on (it enters RECOVERING).

        The rebooting site's detector is seeded with the current ground
        truth, modeling a round of boot-time pings.
        """
        site = self.sites[site_id]
        site.power_on()
        self.detectors[site_id].reset(
            [sid for sid in self.sites if not self.sites[sid].is_down]
        )

    def notify_recovered(self, site_id: int) -> None:
        """Tell every live detector that ``site_id`` is back.

        Invoked by the recovery layer after the type-1 control transaction
        commits (the paper's announcement moment).
        """
        for other_id, detector in self.detectors.items():
            if not self.sites[other_id].is_down:
                detector.mark_up(site_id)
        for hook in list(self.recovered_hooks):
            hook(site_id)
        for fn in self.kernel.probes.recovered:
            fn(site_id)

    def __repr__(self) -> str:
        states = ", ".join(f"{sid}:{site.status.value}" for sid, site in sorted(self.sites.items()))
        return f"<Cluster {states}>"
