"""The metrics registry: collectors, histograms, time series.

Every instrument is keyed by ``(name, site_id)`` — ``site_id`` is ``None``
for system-global instruments — so :meth:`MetricsRegistry.snapshot` can
offer both a per-site and a summed global view of the same name. Names
follow a ``subsystem.measure`` convention (``dm.session_mismatch``,
``locks.wait_time``, ``copier.refreshes``, ``recovery.downtime``); the
full catalog lives in ``docs/OBSERVABILITY.md``.

Two cost regimes:

* **Push instruments** (``histogram``/``series``) are updated inline by
  the instrumented component. They are reserved for *rare* events (lock
  waits, commits, refreshes) — never the kernel event loop.
* **Collectors** carry every scalar, zero-cost until read: a callable
  registered with :meth:`add_collector` that scrapes counters a
  component already keeps (``TmStats``, ``NetworkStats``,
  ``CopierStats`` …) at snapshot time. The hot paths those counters
  live on are not touched at all.
"""

from __future__ import annotations

import math
import typing

#: Fixed log-scale histogram bucket upper bounds: powers of two from
#: 2^-3 (0.125 sim-time units) to 2^17 (131072), plus an implicit
#: overflow bucket. One shared layout keeps every histogram mergeable.
BUCKET_BOUNDS: tuple[float, ...] = tuple(2.0**exp for exp in range(-3, 18))

Key = typing.Tuple[str, typing.Optional[int]]


def percentile(values: typing.Sequence[float], p: float) -> float:
    """Half-up nearest-rank percentile (p in [0, 100]); 0.0 when empty.

    The one percentile in the repository: the harness statistics, the
    bench latency columns, the ``tm.commit_p50/p99`` collectors, and the
    critical-path latency budget all route here, so every reported
    percentile uses the same convention. The rank is ``floor(x + 0.5)``
    rather than ``round(x)``: built-in ``round`` uses banker's rounding,
    under which the p50 of two elements lands on index 0 (0.5 rounds to
    0) — half-up makes .5 ties resolve to the upper neighbour
    consistently on every Python build.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if p <= 0:
        return ordered[0]
    if p >= 100:
        return ordered[-1]
    rank = int(math.floor(p / 100 * (len(ordered) - 1) + 0.5))
    return ordered[max(0, min(len(ordered) - 1, rank))]


class Histogram:
    """A fixed log-scale-bucket histogram of non-negative samples."""

    __slots__ = ("name", "site_id", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, site_id: int | None) -> None:
        self.name = name
        self.site_id = site_id
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        index = 0
        for bound in BUCKET_BOUNDS:
            if value <= bound:
                break
            index += 1
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": self.min,
            "max": self.max,
            "buckets": {
                ("inf" if index == len(BUCKET_BOUNDS) else BUCKET_BOUNDS[index]): n
                for index, n in enumerate(self.buckets)
                if n
            },
        }

    def merge_into(self, other: "Histogram") -> None:
        """Add this histogram's samples into ``other`` (global views)."""
        for index, n in enumerate(self.buckets):
            other.buckets[index] += n
        other.count += self.count
        other.total += self.total
        if self.min is not None and (other.min is None or self.min < other.min):
            other.min = self.min
        if self.max is not None and (other.max is None or self.max > other.max):
            other.max = self.max


class TimeSeries:
    """An append-only ``(time, value)`` series (drain curves and the like)."""

    __slots__ = ("name", "site_id", "points")

    def __init__(self, name: str, site_id: int | None) -> None:
        self.name = name
        self.site_id = site_id
        self.points: list[tuple[float, float]] = []

    def append(self, time: float, value: float) -> None:
        self.points.append((time, value))


class MetricsRegistry:
    """All instruments of one system, plus pull-time collectors."""

    def __init__(self) -> None:
        self._histograms: dict[Key, Histogram] = {}
        self._series: dict[Key, TimeSeries] = {}
        self._collectors: list[typing.Callable[[], dict[Key, float]]] = []

    # -- instrument factories (idempotent per key) ----------------------------

    def histogram(self, name: str, site: int | None = None) -> Histogram:
        key = (name, site)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, site)
        return instrument

    def series(self, name: str, site: int | None = None) -> TimeSeries:
        key = (name, site)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = TimeSeries(name, site)
        return instrument

    def has(self, name: str, site: int | None = None) -> bool:
        """True when a histogram or series ``(name, site)`` exists; a
        reader that must not create one asks this before its factory."""
        key = (name, site)
        return key in self._histograms or key in self._series

    def add_collector(
        self, collector: typing.Callable[[], dict[Key, float]]
    ) -> None:
        """Register a pull-time scraper returning ``{(name, site): value}``."""
        self._collectors.append(collector)

    # -- views ----------------------------------------------------------------

    def _scalar_values(self) -> dict[Key, float]:
        values: dict[Key, float] = {}
        for collector in self._collectors:
            for key, value in collector().items():
                values[key] = values.get(key, 0.0) + value
        return values

    def value(self, name: str, site: int | None = None) -> float:
        """Current scalar value of ``name`` (summed over sites if None)."""
        values = self._scalar_values()
        if site is not None:
            return values.get((name, site), 0.0)
        return sum(v for (n, _s), v in values.items() if n == name)

    def snapshot(self) -> dict:
        """Plain-dict view: global totals plus per-site breakdowns.

        Scalars (collector output) appear under
        ``"global"`` (summed over sites) and ``"per_site"``; histograms
        under ``"histograms"`` with a merged ``None``-site entry per
        name; series under ``"series"`` keyed ``name@site``.
        """
        values = self._scalar_values()
        global_view: dict[str, float] = {}
        per_site: dict[str, dict[int, float]] = {}
        for (name, site), value in sorted(values.items(), key=lambda kv: str(kv[0])):
            global_view[name] = global_view.get(name, 0.0) + value
            if site is not None:
                per_site.setdefault(name, {})[site] = value

        histograms: dict[str, dict] = {}
        merged: dict[str, Histogram] = {}
        for (name, site), histogram in self._histograms.items():
            if site is not None:
                histograms.setdefault(name, {})[f"site_{site}"] = histogram.to_dict()
            target = merged.get(name)
            if target is None:
                target = merged[name] = Histogram(name, None)
            histogram.merge_into(target)
        for name, histogram in merged.items():
            histograms.setdefault(name, {})["all"] = histogram.to_dict()

        series = {
            (name if site is None else f"{name}@{site}"): list(ts.points)
            for (name, site), ts in self._series.items()
        }
        return {
            "global": global_view,
            "per_site": per_site,
            "histograms": histograms,
            "series": series,
        }
