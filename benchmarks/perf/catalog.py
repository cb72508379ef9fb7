"""The metric catalog, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repo root is the one place a metric is declared:
name, unit, direction and — for the metrics the driver bounds across
seeds — the bound. This module adds the two things that file has no key
for: a metric's *kind*, and the bounds ``--compare`` applies between two
documents of the same seed.

Kinds: ``exact`` — sim time or counter, a function of the seed alone;
``wall`` — host time or memory, compared through medians and spreads.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# Units only a host clock or the host's memory can produce.
_HOST_UNITS = frozenset({"s", "ms", "us", "ns", "1/s", "MB", "%"})
# Shares of host time, which carry the unit ``share`` like the exact ones.
_HOST_SHARES = ("prof.share.", "workload.generator_share")

#: The end-to-end metrics of the issue: how far each may worsen between two
#: documents of one seed before ``--compare`` calls it a regression, as
#: ``(share of the first value, slack in the metric's unit)``, whichever
#: allows more. The driver's cross-seed bounds are in ``BENCHMARK.json``.
COMPARE_BOUNDS: dict[str, tuple[float, float]] = {
    "setup_s": (0.20, 0.1),
    "txn_wall_per_s": (0.10, 0.0),
    "txn_per_sim_kunit": (0.02, 0.0),
    "commit_sim_mean": (0.02, 0.0),
    "commit_sim_p50": (0.02, 0.0),
    "commit_sim_p99": (0.02, 0.0),
    "committed_share": (0.0, 0.01),
    "recovery_operational_sim_p50": (0.02, 0.0),
    "recovery_operational_sim_max": (0.02, 0.0),
    "recovery_current_sim_p50": (0.02, 0.0),
    "recovery_current_sim_max": (0.02, 0.0),
    "recovery_wall_s": (0.10, 0.0),
    "peak_rss_mb": (0.10, 0.0),
}


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float | None  # the driver's, across seeds; None for per-layer metrics

    @property
    def kind(self) -> str:
        host = self.unit in _HOST_UNITS or self.name.startswith(_HOST_SHARES)
        return "wall" if host else "exact"


@functools.cache
def contract() -> dict:
    """The parsed ``BENCHMARK.json`` (read once; callers do not mutate it)."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


@functools.cache
def metrics() -> dict[str, Metric]:
    """Every declared metric by name, end-to-end section first."""
    return {
        entry["name"]: Metric(entry["name"], entry["unit"], entry["better"], entry.get("bound"))
        for section in ("end_to_end", "per_layer")
        for entry in contract()[section]
    }


def names(section: str, prefix: str = "") -> list[str]:
    """Names declared in one section of ``BENCHMARK.json``, in order."""
    return [e["name"] for e in contract()[section] if e["name"].startswith(prefix)]
