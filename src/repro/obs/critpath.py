"""Critical-path latency attribution over recorded span trees.

Answers "where did the commit latency go?" for every committed user
transaction: the window from the transaction root's start to the client
ack is decomposed into **exclusive** segments, each charged to exactly
one category, so the per-category totals sum to the end-to-end ack
latency — no double counting, no silent gaps.

The decomposition walks the transaction's span tree (the root plus its
2pc / rpc / serve / lock-wait / wal-stall descendants recorded by
:class:`~repro.obs.spans.SpanRecorder`) and runs a priority sweep over
the ack window: at every instant the most specific span covering it
wins. The categories, most specific first:

==================  =========================================================
``lock_wait``       waiting in a lock queue (``lock`` spans, any site)
``wal_stall``       blocked on a WAL group-commit flush (``wal_stall`` spans)
``prepare_wait``    the 2PC prepare round (``rpc:dm.prepare`` spans)
``decision_broadcast``  the commit/abort round on the client path
                    (``rpc:dm.commit`` / ``rpc:dm.abort`` spans)
``ro_serve``        snapshot-read rounds of read-only transactions
                    (``rpc:dm.read_snapshot`` and its serve span —
                    service *and* transit, so a lock-free RO txn's whole
                    ack latency lands here)
``execution``       remote DM work (other ``serve`` spans)
``network``         RPC transit not covered by a serve span
``client_think``    explicit ``think`` spans inside the window (closed-loop
                    clients think *between* transactions, so this is 0
                    unless a workload yields mid-transaction)
``unattributed``    the remainder — instants no recorded span explains
==================  =========================================================

Why priority rather than chain-walking: an ``rpc:dm.write`` span fully
covers its remote ``serve:dm.write`` child, which in turn may contain a
``lock`` wait — with the sweep, the lock wait charges to ``lock_wait``,
the rest of the serve to ``execution``, and only the transit residue to
``network``. A span whose parent never finished, a zero-duration span,
or a span finished out of order (``end < start``) never crashes the
sweep: it simply covers nothing, and time nothing covers lands in
``unattributed`` — which the report flags when it exceeds
:data:`GAP_FLAG_FRACTION` of the total.

The aggregate (:func:`latency_budget`) is the per-category latency
budget: totals, share-of-total, and per-transaction p50/p99, surfaced by
``repro latency``, the recovery-timeline report, and the E10 CI
artifact.
"""

from __future__ import annotations

import typing

from repro.obs.metrics import percentile

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.spans import Span, SpanRecorder

#: Attribution categories, highest priority (most specific) first. The
#: sweep charges each instant of the ack window to the first category in
#: this order with a covering span; ``unattributed`` is the implicit
#: last resort.
CATEGORIES: tuple[str, ...] = (
    "lock_wait",
    "wal_stall",
    "prepare_wait",
    "decision_broadcast",
    "ro_serve",
    "execution",
    "network",
    "client_think",
)

#: The report flags the run when ``unattributed`` exceeds this fraction
#: of total ack latency (the E10 acceptance bound).
GAP_FLAG_FRACTION = 0.05

_UNATTRIBUTED = len(CATEGORIES)


def _bucket_of(span: "Span") -> int | None:
    """Category index for ``span``, or None when it never attributes."""
    category = span.category
    if category == "lock":
        return 0
    if category == "wal_stall":
        return 1
    if category == "rpc":
        if span.name == "rpc:dm.prepare":
            return 2
        if span.name in ("rpc:dm.commit", "rpc:dm.abort"):
            return 3
        if span.name == "rpc:dm.read_snapshot":
            return 4
        return 6
    if category == "serve":
        if span.name == "serve:dm.read_snapshot":
            return 4
        return 5
    if category == "think":
        return 7
    return None  # 2pc containers, drains, anything future


def _descendants(
    children: dict[int, list["Span"]], root: "Span"
) -> list["Span"]:
    """Every span under ``root``, excluding ``drain`` subtrees.

    Drains are post-ack background work by construction (they start at
    the decision); excluding the subtree keeps the walk honest even if a
    drain's own RPC children outlive the window.
    """
    found: list[Span] = []
    stack = [root.span_id]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child.category == "drain":
                continue
            found.append(child)
            stack.append(child.span_id)
    return found


def ack_end_of(root: "Span", children: dict[int, list["Span"]]) -> float | None:
    """The client-ack moment of a committed transaction root.

    Prefers the explicit ``ack_time`` attr the TM stamps when the commit
    strategy returns; falls back to the end of the ``2pc`` child (under
    sync 2PC the root closes at the *decision*, before the commit round
    the client still waits on), then to the root's own end.
    """
    if root.attrs:
        ack = root.attrs.get("ack_time")
        if isinstance(ack, (int, float)):
            return float(ack)
    two_pc_ends = [
        child.end
        for child in children.get(root.span_id, ())
        if child.category == "2pc" and child.end is not None
    ]
    if two_pc_ends:
        return max(two_pc_ends)
    return root.end


def attribute_txn(
    root: "Span", children: dict[int, list["Span"]]
) -> dict[str, float] | None:
    """Decompose one committed root's ack window; None when unmeasurable.

    Returns ``{category: seconds}`` over :data:`CATEGORIES` plus
    ``"unattributed"`` and ``"total"``; the categories sum to the total
    exactly (same additions, no rounding).
    """
    ack_end = ack_end_of(root, children)
    if ack_end is None:
        return None
    window_start, window_end = root.start, ack_end
    intervals: list[tuple[float, float, int]] = []
    for span in _descendants(children, root):
        bucket = _bucket_of(span)
        if bucket is None or span.end is None:
            continue
        start = max(span.start, window_start)
        end = min(span.end, window_end)
        if end > start:  # drops zero-duration and out-of-order spans
            intervals.append((start, end, bucket))

    # Priority sweep over the elementary segments between boundaries.
    bounds = {window_start, window_end}
    for start, end, _bucket in intervals:
        bounds.add(start)
        bounds.add(end)
    points = sorted(b for b in bounds if window_start <= b <= window_end)
    charged = [0.0] * (_UNATTRIBUTED + 1)
    for seg_start, seg_end in zip(points, points[1:]):
        if seg_end <= seg_start:
            continue
        best = _UNATTRIBUTED
        for start, end, bucket in intervals:
            if bucket < best and start <= seg_start and seg_end <= end:
                best = bucket
        charged[best] += seg_end - seg_start

    result = {name: charged[i] for i, name in enumerate(CATEGORIES)}
    result["unattributed"] = charged[_UNATTRIBUTED]
    result["total"] = window_end - window_start
    return result


def committed_user_roots(recorder: "SpanRecorder") -> list["Span"]:
    """Root spans of committed user transactions, in recording order."""
    return [
        span
        for span in recorder.spans
        if span.parent_id is None
        and span.category == "user"
        and span.attrs is not None
        and span.attrs.get("status") == "committed"
    ]


def latency_budget(
    obs: "Observability", flag_fraction: float = GAP_FLAG_FRACTION
) -> dict:
    """The per-category latency budget over every committed user txn.

    Plain-dict shape (JSON-ready)::

        {"txns": N, "total": T, "ack_p50": ..., "ack_p99": ...,
         "categories": {name: {"total", "share", "p50", "p99"}, ...},
         "gap_fraction": unattributed/T, "gap_ok": bool,
         "flag_fraction": flag_fraction}

    ``categories`` includes ``unattributed`` and preserves the priority
    order of :data:`CATEGORIES`; shares sum to 1.0 (when T > 0) because
    the per-transaction decomposition is exclusive and exhaustive.
    """
    recorder = obs.spans
    children: dict[int, list[Span]] = {}
    for span in recorder.spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    names = CATEGORIES + ("unattributed",)
    per_category: dict[str, list[float]] = {name: [] for name in names}
    totals: list[float] = []
    for root in committed_user_roots(recorder):
        charges = attribute_txn(root, children)
        if charges is None:
            continue
        totals.append(charges["total"])
        for name in names:
            per_category[name].append(charges[name])

    grand_total = sum(totals)
    categories = {}
    for name in names:
        values = per_category[name]
        total = sum(values)
        categories[name] = {
            "total": total,
            "share": (total / grand_total) if grand_total > 0 else 0.0,
            "p50": percentile(values, 50),
            "p99": percentile(values, 99),
        }
    gap_fraction = categories["unattributed"]["share"]
    return {
        "txns": len(totals),
        "total": grand_total,
        "ack_p50": percentile(totals, 50),
        "ack_p99": percentile(totals, 99),
        "categories": categories,
        "gap_fraction": gap_fraction,
        "gap_ok": gap_fraction <= flag_fraction,
        "flag_fraction": flag_fraction,
    }


def render_latency_budget(budget: dict) -> str:
    """Human-readable latency-budget table."""
    lines = [
        f"latency budget ({budget['txns']} committed user txns, "
        f"total ack latency {budget['total']:.1f}, "
        f"ack p50={budget['ack_p50']:.1f} p99={budget['ack_p99']:.1f})",
        f"{'category':>18}  {'total':>9}  {'share':>6}  {'p50':>7}  {'p99':>7}",
    ]
    for name, entry in budget["categories"].items():
        flag = ""
        if name == "unattributed" and not budget["gap_ok"]:
            flag = (f"  << ABOVE {budget['flag_fraction']:.0%} "
                    "UNATTRIBUTED GAP")
        lines.append(
            f"{name:>18}  {entry['total']:>9.1f}  {entry['share']:>6.1%}  "
            f"{entry['p50']:>7.2f}  {entry['p99']:>7.2f}{flag}"
        )
    return "\n".join(lines)
