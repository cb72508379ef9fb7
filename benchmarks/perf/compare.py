"""``--compare A.json B.json``: per (workload, metric) delta, bound, verdict.

Both documents must be of the same seed, so the inputs are the same and
every exact-kind metric (sim time, counter) compares with ``==``.

Verdicts of the end-to-end metrics (those with a same-seed bound in
:data:`benchmarks.perf.catalog.COMPARE_BOUNDS`):

* ``same`` / ``improved`` / ``regressed`` — by the bound.
* ``unresolved`` — a wall-kind metric whose reps spread (quartile distance
  as a share of the median, in either document) wider than its bound:
  the runs cannot tell.
* ``failed`` — the workload passed its output checks before and fails
  them after (or is missing).

Per-layer metrics have no bound: an exact one that moved is ``improved``
or ``regressed`` by its direction, a wall one is ``advisory`` (printed
when it moved by more than a tenth). Only end-to-end verdicts are
tallied; ``regressed`` or ``failed`` exits 1.
"""

from __future__ import annotations

import json

from benchmarks.perf import catalog


def _spread_share(entry: dict, name: str) -> float:
    """Recorded quartile distance of a wall metric, as a share of its median."""
    spread = entry["detail"]["spread"].get(name)
    if not spread or not spread.get("median"):
        return 0.0
    return spread["iqr"] / spread["median"]


def verdict(metric: catalog.Metric, before, after,
            spread_share: float = 0.0) -> tuple[float | None, float | None, str]:
    """``(worsening, allowed, verdict)``, both amounts in the metric's unit."""
    if before is None or after is None:
        return None, None, "same" if before == after else "unresolved"
    worse = after - before if metric.better == "lower" else before - after
    if metric.kind == "exact" and before == after:
        return 0.0, None, "same"
    if metric.name not in catalog.COMPARE_BOUNDS:
        if metric.kind == "wall":
            return worse, None, "advisory"
        return worse, 0.0, "regressed" if worse > 0 else "improved"
    share, slack = catalog.COMPARE_BOUNDS[metric.name]
    allowed = max(share * abs(before), slack)
    if metric.kind == "wall" and spread_share > share:
        return worse, allowed, "unresolved"
    if worse > allowed:
        return worse, allowed, "regressed"
    if worse < -allowed:
        return worse, allowed, "improved"
    return worse, allowed, "same"


def compare(before_doc: dict, after_doc: dict) -> tuple[list[tuple], dict[str, int]]:
    """Rows ``(workload, metric, before, after, worsening, allowed, verdict)``
    for every metric both documents carry, and the verdict tally of the
    end-to-end rows."""
    rows = []
    tally: dict[str, int] = {}
    for workload, before in before_doc["workloads"].items():
        after = after_doc["workloads"].get(workload, {"ok": False})
        if not (before["ok"] and after["ok"]):
            # Nothing to hold a broken "after" against when "before" was broken too.
            result = "failed" if before["ok"] else "unresolved"
            rows.append((workload, "-", None, None, None, None, result))
            tally[result] = tally.get(result, 0) + 1
            continue
        for name, metric in catalog.metrics().items():
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            old, new = before["metrics"][name], after["metrics"][name]
            spread = max(_spread_share(before, name), _spread_share(after, name))
            worse, allowed, result = verdict(metric, old, new, spread)
            rows.append((workload, name, old, new, worse, allowed, result))
            if name in catalog.COMPARE_BOUNDS:
                tally[result] = tally.get(result, 0) + 1
    for name, old in (before_doc["drivers"] or {}).items():
        new = (after_doc["drivers"] or {}).get(name)
        if new is not None:
            rows.append(("(drivers)", name, old, new, *verdict(catalog.metrics()[name], old, new)))
    return rows, tally


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(before_path: str, after_path: str) -> int:
    """Print the table; exit 1 when an end-to-end metric regressed or a
    workload stopped passing its checks, 2 when the seeds differ."""
    with open(before_path) as handle:
        before_doc = json.load(handle)
    with open(after_path) as handle:
        after_doc = json.load(handle)
    seeds = before_doc["header"]["seed"], after_doc["header"]["seed"]
    if seeds[0] != seeds[1]:
        print(f"--compare needs two documents of one seed, got seeds {seeds[0]} and {seeds[1]}")
        return 2
    rows, tally = compare(before_doc, after_doc)
    print(f"{'workload':22s} {'metric':38s} {'before':>12s} {'after':>12s} "
          f"{'worse by':>12s} {'allowed':>12s}  verdict")
    for workload, name, before, after, worse, allowed, result in rows:
        if name not in catalog.COMPARE_BOUNDS and (
            result == "same" or result == "advisory" and abs(worse) <= 0.1 * abs(before)
        ):
            continue  # identical counters and host jitter are the expected case
        print(f"{workload:22s} {name:38s} {_fmt(before):>12s} {_fmt(after):>12s} "
              f"{_fmt(worse):>12s} {_fmt(allowed):>12s}  {result}")
    print("end-to-end verdicts: " + ", ".join(f"{k}={v}" for k, v in sorted(tally.items())))
    return 1 if tally.get("regressed") or tally.get("failed") else 0
