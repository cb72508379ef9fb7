"""SR / 1-SR verdicts on recorded histories (test oracles for §4).

Checking one-serializability exactly is NP-complete in general, so the
checker is layered:

1. :func:`check_sr` — conflict-graph acyclicity: exact for the class of
   schedulers we run (strict 2PL produces DSR histories).
2. :func:`check_one_sr` — first tries the candidate 1-STG (acyclic ⇒
   1-SR by the §4 Corollary); if cyclic and the history is small enough,
   falls back to an exhaustive one-copy serial-order search that is exact
   (simulating the one-copy database and backtracking); otherwise the
   verdict is ``ok=False, method="1stg-cycle-unverified"``.

The exhaustive search also enforces final-state equivalence (the
augmented history's final transaction, §4): the last writer of each item
in the serial order must be the writer of the highest committed version.
"""

from __future__ import annotations

import dataclasses

from repro.digraph import NoCycle, find_cycle
from repro.histories.graphs import (
    ItemFilter,
    build_conflict_graph,
    build_one_stg,
    logical_write_order,
    read_from_pairs,
)
from repro.histories.recorder import INITIAL_TXN, HistoryRecorder


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Verdict of a history check.

    ``method`` records how the verdict was reached (for diagnostics):
    ``"cg-acyclic"``, ``"cg-cycle"``, ``"1stg-acyclic"``,
    ``"exhaustive-found-order"``, ``"exhaustive-no-order"``, or
    ``"1stg-cycle-unverified"``.
    """

    ok: bool
    method: str
    detail: str = ""


def check_sr(
    recorder: HistoryRecorder, item_filter: ItemFilter | None = None
) -> CheckResult:
    """Serializability of the physical history via CG acyclicity."""
    graph = build_conflict_graph(recorder, item_filter)
    try:
        cycle = find_cycle(graph)
    except NoCycle:
        return CheckResult(ok=True, method="cg-acyclic")
    return CheckResult(ok=False, method="cg-cycle", detail=str(cycle))


def check_theorem3(recorder: HistoryRecorder) -> CheckResult:
    """The protocol invariant behind Theorem 3.

    The conflict graph *with respect to DB ∪ NS* (i.e. over every item,
    nominal session numbers included) must be acyclic; the theorem then
    makes it a 1-STG with respect to DB, so the execution is
    one-serializable.
    """
    return check_sr(recorder, item_filter=None)


def check_one_sr(
    recorder: HistoryRecorder,
    item_filter: ItemFilter | None = None,
    exhaustive_limit: int = 12,
) -> CheckResult:
    """One-serializability of the logical history."""
    candidate = build_one_stg(recorder, item_filter)
    try:
        cycle = find_cycle(candidate)
    except NoCycle:
        return CheckResult(ok=True, method="1stg-acyclic")

    txns = _one_copy_txns(recorder, item_filter)
    if len(txns) <= exhaustive_limit:
        order = _search_serial_order(recorder, item_filter)
        if order is not None:
            return CheckResult(
                ok=True, method="exhaustive-found-order", detail=" < ".join(order)
            )
        return CheckResult(ok=False, method="exhaustive-no-order", detail=str(cycle))
    return CheckResult(ok=False, method="1stg-cycle-unverified", detail=str(cycle))


# ---------------------------------------------------------------------------
# Exhaustive one-copy serial-order search
# ---------------------------------------------------------------------------


def _one_copy_txns(
    recorder: HistoryRecorder, item_filter: ItemFilter | None
) -> set[str]:
    """Committed non-copier transactions with at least one in-scope op."""
    txns: set[str] = set()
    for _, _, txn_id, _, kind, _, item, _, _, _, _ in recorder._committed_rows():
        if item_filter is not None and not item_filter(item):
            continue
        if kind == "copier":
            continue
        txns.add(txn_id)
    txns.discard(INITIAL_TXN)
    return txns


def _search_serial_order(
    recorder: HistoryRecorder, item_filter: ItemFilter | None
) -> list[str] | None:
    """Find a one-copy serial order equivalent to the history, if any.

    Simulates the one-copy database: place transactions one at a time; a
    transaction may be placed only if every item it read currently has
    the writer it actually read from as the last writer. Final-state
    equivalence is enforced at the end. Memoizes failed frontier states.
    """
    txns = _one_copy_txns(recorder, item_filter)
    reads: dict[str, dict[str, str]] = {txn: {} for txn in txns}
    for writer, item, reader in read_from_pairs(recorder, item_filter):
        if reader in reads:
            reads[reader][item] = writer
    write_order = logical_write_order(recorder, item_filter)
    writes: dict[str, set[str]] = {txn: set() for txn in txns}
    final_writer: dict[str, str] = {}
    for item, writers in write_order.items():
        final_writer[item] = writers[-1]
        for writer in writers:
            if writer in writes:
                writes[writer].add(item)

    last_writer_now: dict[str, str] = {item: INITIAL_TXN for item in write_order}
    placed: list[str] = []
    failed: set[tuple] = set()

    def state_key(remaining: frozenset) -> tuple:
        return (remaining, tuple(sorted(last_writer_now.items())))

    def backtrack(remaining: frozenset) -> bool:
        if not remaining:
            return all(
                last_writer_now[item] == final_writer[item] for item in final_writer
            )
        key = state_key(remaining)
        if key in failed:
            return False
        for txn in sorted(remaining):
            if any(
                last_writer_now.get(item, INITIAL_TXN) != writer
                for item, writer in reads[txn].items()
            ):
                continue
            overwritten = {
                item: last_writer_now[item] for item in writes[txn]
            }
            for item in writes[txn]:
                last_writer_now[item] = txn
            placed.append(txn)
            if backtrack(remaining - {txn}):
                return True
            placed.pop()
            for item, previous in overwritten.items():
                last_writer_now[item] = previous
        failed.add(key)
        return False

    if backtrack(frozenset(txns)):
        return list(placed)
    return None
