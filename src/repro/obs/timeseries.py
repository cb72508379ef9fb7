"""Windowed time-series telemetry: a kernel-timer-driven sampler.

The metrics registry is an end-of-run snapshot; throughput dips during
an outage and the recovery ramp afterwards are invisible in it. The
:class:`WindowedSampler` closes that gap: a periodic kernel timer
(every ``DEFAULT_PERIOD``, **off by default** — nothing here runs unless
a scenario opts in) snapshots a designated set of probes into fixed-width
windows:

* ``ts.committed`` / ``ts.aborted`` — monotone counters, **delta
  encoded**: each window stores only what happened inside it, so
  window/period is the instantaneous commit (abort) rate;
* ``ts.inflight_drains`` — async-quorum drains spawned but not finished;
* ``ts.missing_depth`` — total unreadable copies across the cluster
  (the missing-list drain, live);
* ``ts.site_up`` — per-site 0/1 availability gauge.

Gauges are sampled at each window's *end*; an outage shorter than one
window can therefore hide between ticks.

The series reach both exports of :mod:`repro.obs.export`: one
``series`` line each in the JSONL stream, and Chrome trace
*counter-track* events (:func:`counter_events`) so the dips render right
under the span timeline in Perfetto. :func:`outage_stats` derives the
recovery-timeline report's "throughput trough" figures: per outage (a
maximal run of windows with any site down), the minimum windowed commit
rate and the time to recover 90% of the all-up baseline rate.

Cost model: one timer callback per period touching a handful of Python
counters — never the kernel event loop. No gate bounds it. The cost of
looking is measured by the reference benchmark's
``obs.trace_overhead_pct`` (a traced rep's wall time over a plain
one's, reported with no bound); its traced rep turns on spans, the
timeline and the profiler, not this sampler, which only ``repro run``
attaches.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

#: Sampling period (sim-time units): fine enough to resolve a 40-unit
#: outage, coarse enough to stay negligible.
DEFAULT_PERIOD = 10.0

#: Recovery threshold for :func:`outage_stats`: a post-outage window
#: counts as recovered when its commit rate reaches this fraction of
#: the all-up baseline.
RECOVERY_FRACTION = 0.9

Probe = typing.Callable[[], float]


class WindowedSampler:
    """Fixed-width window snapshots of registered probes.

    Probes are registered (``add_delta`` / ``add_gauge``) before
    :meth:`start`; every ``DEFAULT_PERIOD`` sim-time units the sampler
    appends one value per probe, so all series stay aligned: window ``w``
    spans ``(t0 + w*DEFAULT_PERIOD, t0 + (w+1)*DEFAULT_PERIOD]``.
    """

    __slots__ = ("kernel", "t0", "windows", "running",
                 "_timer", "_probes", "_values", "_last")

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.t0 = kernel.now
        self.windows = 0
        self.running = False
        self._timer: typing.Any = None
        #: (name, site, kind, probe) in registration order — iteration
        #: order is deterministic by construction (tests/test_hash_seed.py).
        self._probes: list[tuple[str, int | None, str, Probe]] = []
        self._values: dict[tuple[str, int | None], list[float]] = {}
        self._last: dict[tuple[str, int | None], float] = {}

    # -- registration ---------------------------------------------------------

    def _add(self, name: str, site: int | None, kind: str, probe: Probe) -> None:
        if self.windows:
            raise RuntimeError("cannot add probes after sampling began")
        self._probes.append((name, site, kind, probe))
        self._values[(name, site)] = []

    def add_delta(self, name: str, probe: Probe, site: int | None = None) -> None:
        """Sample a monotone counter; windows store per-window deltas."""
        self._add(name, site, "delta", probe)

    def add_gauge(self, name: str, probe: Probe, site: int | None = None) -> None:
        """Sample a point-in-time value at each window end."""
        self._add(name, site, "gauge", probe)

    # -- the timer loop -------------------------------------------------------

    def start(self) -> None:
        """Prime the delta baselines and schedule the first tick."""
        if self.running:
            return
        self.running = True
        self.t0 = self.kernel.now
        for name, site, kind, probe in self._probes:
            if kind == "delta":
                self._last[(name, site)] = float(probe())
        self._timer = self.kernel.schedule_callback(DEFAULT_PERIOD, self._tick)

    def stop(self) -> None:
        """Cancel the timer so an unbounded ``kernel.run()`` can drain."""
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self.running:
            return
        for name, site, kind, probe in self._probes:
            key = (name, site)
            raw = float(probe())
            if kind == "delta":
                self._values[key].append(raw - self._last[key])
                self._last[key] = raw
            else:
                self._values[key].append(raw)
        self.windows += 1
        self._timer = self.kernel.schedule_callback(DEFAULT_PERIOD, self._tick)

    # -- views ----------------------------------------------------------------

    def window_times(self) -> list[float]:
        """The end time of each completed window."""
        return [self.t0 + (w + 1) * DEFAULT_PERIOD for w in range(self.windows)]

    def values(self, name: str, site: int | None = None) -> list[float]:
        """The recorded windows of one series (deltas for counters)."""
        return list(self._values.get((name, site), ()))

    def series(self) -> list[dict]:
        """Every series as a plain dict, in registration order."""
        return [
            {
                "name": name,
                "site": site,
                "kind": kind,
                "values": list(self._values[(name, site)]),
            }
            for name, site, kind, _probe in self._probes
        ]

    def series_names(self) -> list[str]:
        """Distinct series names, sorted (the doc-drift catalog view)."""
        return sorted({name for name, _s, _k, _p in self._probes})


def attach_sampler(system: typing.Any) -> WindowedSampler:
    """Build, register, and start the standard sampler on ``system``.

    Wires the designated probe set (commit/abort rates, in-flight
    drains, missing-list depth, per-site up/down) against the stats
    objects the components already keep, parks the sampler on
    ``system.obs.sampler`` (where exporters and the report find it), and
    starts the timer. ``system.stop()`` stops it.
    """
    sampler = WindowedSampler(system.kernel)
    tms = [system.tms[site_id] for site_id in sorted(system.tms)]
    sampler.add_delta(
        "ts.committed", lambda: float(sum(tm.stats.committed for tm in tms))
    )
    sampler.add_delta(
        "ts.aborted", lambda: float(sum(tm.stats.aborted for tm in tms))
    )
    sampler.add_gauge(
        "ts.inflight_drains",
        lambda: float(
            sum(tm.stats.drains_spawned - tm.stats.drains_completed
                for tm in tms)
        ),
    )
    cluster = system.cluster

    def missing_depth() -> float:
        return float(
            sum(
                cluster.site(site_id).copies.unreadable_count()
                for site_id in cluster.site_ids
            )
        )

    sampler.add_gauge("ts.missing_depth", missing_depth)
    for site_id in cluster.site_ids:
        site = cluster.site(site_id)
        sampler.add_gauge(
            "ts.site_up",
            lambda s=site: 0.0 if s.is_down else 1.0,
            site=site_id,
        )
    system.obs.sampler = sampler
    sampler.start()
    return sampler


# -- trace export ---------------------------------------------------------------


def counter_events(
    sampler: WindowedSampler, us_per_unit: float = 1000.0
) -> list[dict]:
    """Chrome trace counter-track (``"ph": "C"``) events, one per window.

    Delta series are emitted as rates (delta/period) so the track reads
    in transactions *per sim-time unit*; gauges are emitted as-is.
    Per-site series land on their site's pid, global series on pid 0.
    """
    events: list[dict] = []
    times = sampler.window_times()
    for entry in sampler.series():
        site = entry["site"]
        scale = 1.0 / DEFAULT_PERIOD if entry["kind"] == "delta" else 1.0
        name = (
            f"{entry['name']}/s" if entry["kind"] == "delta" else entry["name"]
        )
        for when, value in zip(times, entry["values"]):
            events.append(
                {
                    "ph": "C",
                    "name": name,
                    "pid": site if site is not None else 0,
                    "tid": 0,
                    "ts": when * us_per_unit,
                    "args": {"value": round(value * scale, 6)},
                }
            )
    return events


# -- throughput-trough analysis -------------------------------------------------


def commit_rates(sampler: WindowedSampler) -> tuple[list[float], list[float]]:
    """``(window_end_times, committed-per-sim-unit rates)``."""
    rates = [v / DEFAULT_PERIOD for v in sampler.values("ts.committed")]
    return sampler.window_times(), rates


def _degraded_windows(sampler: WindowedSampler) -> list[bool]:
    """Per window: was any site observed down at the window end?"""
    per_site = [
        entry["values"] for entry in sampler.series()
        if entry["name"] == "ts.site_up"
    ]
    return [
        any(values[w] < 0.5 for values in per_site)
        for w in range(sampler.windows)
    ]


def outage_stats(sampler: WindowedSampler) -> dict:
    """Throughput-trough figures per outage, plus the all-up baseline.

    An *outage* is a maximal run of windows with at least one site down
    (per the ``ts.site_up`` gauges). ``baseline_rate`` is the mean
    commit rate over all-up windows (falling back to the overall mean
    when the run never has all sites up). Each outage reports its
    minimum windowed rate (the trough) and the time from the outage's
    last degraded window to the first window back at
    :data:`RECOVERY_FRACTION` of baseline — ``None`` when the run ends
    first. Resolution is one window in both directions.
    """
    times, rates = commit_rates(sampler)
    degraded = _degraded_windows(sampler)
    n = sampler.windows
    clear = [rate for rate, down in zip(rates, degraded) if not down]
    pool = clear or rates
    baseline = sum(pool) / len(pool) if pool else 0.0
    threshold = RECOVERY_FRACTION * baseline

    outages: list[dict] = []
    w = 0
    while w < n:
        if not degraded[w]:
            w += 1
            continue
        first = w
        while w < n and degraded[w]:
            w += 1
        last = w - 1  # final degraded window of this outage
        recovered_at = None
        for j in range(w, n):
            if rates[j] >= threshold:
                recovered_at = times[j]
                break
        outages.append(
            {
                "start": times[first] - DEFAULT_PERIOD,
                "end": times[last],
                "windows": w - first,
                "trough_rate": min(rates[first:w]),
                "recovered_90_at": recovered_at,
                "time_to_recover_90": (
                    recovered_at - times[last]
                    if recovered_at is not None
                    else None
                ),
            }
        )
    return {
        "period": DEFAULT_PERIOD,
        "baseline_rate": baseline,
        "recovery_fraction": RECOVERY_FRACTION,
        "outages": outages,
    }


def render_outage_stats(stats: dict) -> list[str]:
    """Render lines for the recovery-timeline report."""
    lines = [
        f"throughput baseline {stats['baseline_rate']:.3f} txn/unit "
        f"(window={stats['period']:.0f})"
    ]
    for outage in stats["outages"]:
        recover = (
            f"recover90=+{outage['time_to_recover_90']:.0f}"
            if outage["time_to_recover_90"] is not None
            else "recover90=never"
        )
        lines.append(
            f"outage t={outage['start']:.0f}..{outage['end']:.0f}: "
            f"trough={outage['trough_rate']:.3f} txn/unit {recover}"
        )
    return lines
