"""Crash/recover schedules and their application to a running system."""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.sim.process import Process
from repro.sim.rng import RngRegistry

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system import DatabaseSystem


@dataclasses.dataclass(frozen=True, slots=True)
class FailureEvent:
    """One scheduled action: crash or power a site (back) on."""

    time: float
    action: typing.Literal["crash", "power_on"]
    site_id: int


class FailureSchedule:
    """An ordered list of failure events plus constructors and an applier."""

    def __init__(self, events: typing.Iterable[FailureEvent]) -> None:
        self.events = sorted(events, key=lambda event: event.time)
        self.last_skipped: list[FailureEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> typing.Iterator[FailureEvent]:
        return iter(self.events)

    # -- constructors ----------------------------------------------------------

    #: RngRegistry stream name for schedule construction (see
    #: ``harness.placement`` for the precedent).
    RNG_STREAM = "workload.failures"

    @classmethod
    def random_failures(
        cls,
        site_ids: typing.Sequence[int],
        rng: random.Random | int,
        horizon: float,
        mtbf: float,
        mttr: float,
        min_up_sites: int = 1,
    ) -> "FailureSchedule":
        """Exponential times-to-failure and times-to-repair per site.

        ``rng`` may be a seed, which draws from the registry stream
        ``"workload.failures"`` — the same seed then yields the same
        schedule regardless of what else an experiment draws, instead of
        entangling the crash times with every other ``random.Random``
        consumer sharing the object. Passing a ``random.Random`` is
        still supported for callers managing their own streams.

        Guarantees (by construction, tracking scheduled state) that at
        least ``min_up_sites`` sites are up at any instant — the paper's
        algorithm requires one operational site for recovery, and after
        total failure recovery blocks.
        """
        if isinstance(rng, int):
            rng = RngRegistry(rng).stream(cls.RNG_STREAM)
        events: list[FailureEvent] = []
        next_action: list[tuple[float, str, int]] = [
            (rng.expovariate(1.0 / mtbf), "crash", site_id) for site_id in site_ids
        ]
        up = {site_id: True for site_id in site_ids}
        while next_action:
            next_action.sort()
            time, action, site_id = next_action.pop(0)
            if action == "crash":
                if time >= horizon:
                    continue  # no new outages past the horizon
                if sum(up.values()) <= min_up_sites:
                    # Postpone this crash until someone recovers.
                    next_action.append((time + mttr, "crash", site_id))
                    continue
                up[site_id] = False
                events.append(FailureEvent(time, "crash", site_id))
                next_action.append((time + rng.expovariate(1.0 / mttr), "power_on", site_id))
            else:
                # Repairs are emitted even past the horizon: every crash
                # this schedule injects is eventually repaired (the
                # paper's model — sites fail and *recover*). Dropping an
                # owed repair used to leave a site down from early in
                # the run until the experiment's quiesce, which reads as
                # a permanent site loss, not an outage — and wedges any
                # in-doubt 2PC participant whose coordinator it was.
                up[site_id] = True
                events.append(FailureEvent(time, "power_on", site_id))
                next_action.append((time + rng.expovariate(1.0 / mtbf), "crash", site_id))
        return cls(events)

    # -- application -----------------------------------------------------------------

    def apply(self, system: "DatabaseSystem", min_operational: int = 1) -> Process:
        """Drive the schedule against ``system`` as a background process.

        ``min_operational`` is a runtime guard: a crash that would leave
        fewer than this many *operational* sites is skipped. The static
        ``min_up_sites`` guarantee of :meth:`random_failures` counts
        powered sites, but a powered site may still be mid-recovery —
        and total operational failure blocks recovery for good, which
        experiments don't want to trip by accident. Skipped events are
        collected on ``self.last_skipped``.
        """
        skipped: list[FailureEvent] = []
        self.last_skipped = skipped

        def driver():
            for event in self.events:
                delay = event.time - system.kernel.now
                if delay > 0:
                    yield system.kernel.timeout(delay)
                # The failure injector is the scenario's hand of fate, not
                # protocol code: it crashes/restarts sites from outside.
                site = system.cluster.site(event.site_id)  # replint: disable=REP003
                if event.action == "crash":
                    if site.is_down:
                        continue
                    operational = system.cluster.operational_sites()
                    if (
                        site.is_operational
                        and len(operational) <= min_operational
                    ):
                        skipped.append(event)
                        continue
                    system.crash(event.site_id)
                else:
                    if site.is_down:
                        system.power_on(event.site_id)

        return system.kernel.process(driver(), name="failure-schedule")
