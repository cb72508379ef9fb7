"""Graph constructions from §4 of the paper.

* :func:`build_conflict_graph` — the CG: committed transactions, with an
  edge for each pair of conflicting physical operations on the same copy,
  oriented by the order in which the operations took place. Histories
  with acyclic CGs (the class DCP/DSR) are serializable (Theorem 1), and
  Theorem 3 states that under the paper's algorithm the CG *with respect
  to DB ∪ NS* is a 1-STG *with respect to DB*.
* :func:`build_one_stg` — the natural candidate 1-STG: READ-FROM edges
  (original-writer provenance, copier-aware), write-order edges oriented
  by version (commit) order, and the induced read-before edges. By the
  §4 Corollary, acyclicity of this graph certifies one-serializability.
  It is the one 1-STG construction in the package: :func:`check_one_sr`
  and the protocol auditor's ``onesr.cycle`` rule both build it here.

Both return a :class:`repro.digraph.DiGraph` whose nodes are transaction
ids, in first-mention order — the order :func:`repro.digraph.find_cycle`
searches in, so the cycle a failed check prints is seed-determined.
"""

from __future__ import annotations

import typing

from repro.digraph import DiGraph
from repro.histories.recorder import INITIAL_TXN, HistoryRecorder, Op, OpType

ItemFilter = typing.Callable[[str], bool]


def _committed_ops(
    recorder: HistoryRecorder, item_filter: ItemFilter | None
) -> list[Op]:
    ops = recorder.committed_ops()
    if item_filter is not None:
        ops = [op for op in ops if item_filter(op.item)]
    return ops


def build_conflict_graph(
    recorder: HistoryRecorder, item_filter: ItemFilter | None = None
) -> DiGraph:
    """The conflict graph over committed transactions.

    Record order is conflict order: reads are logged at execution and
    writes at commit application, and under strict 2PL conflicting
    operations on a copy are totally ordered by their lock grants, which
    the log order reflects.
    """
    ops = _committed_ops(recorder, item_filter)
    graph = DiGraph()
    for op in ops:
        graph.add_node(op.txn_id)
    per_copy: dict[tuple[str, int], list[Op]] = {}
    for op in ops:
        per_copy.setdefault((op.item, op.site), []).append(op)
    for copy_ops in per_copy.values():
        for i, earlier in enumerate(copy_ops):
            for later in copy_ops[i + 1 :]:
                if later.txn_id == earlier.txn_id:
                    continue
                if earlier.op is OpType.WRITE or later.op is OpType.WRITE:
                    graph.add_edge(earlier.txn_id, later.txn_id)
    return graph


def read_from_pairs(
    recorder: HistoryRecorder, item_filter: ItemFilter | None = None
) -> dict[tuple[str, str, str], None]:
    """The READ-FROM relation: (writer, item, reader) triples.

    Copier-aware (§4): the writer is the transaction that *originally*
    produced the version (carried through copiers unchanged). Self-reads
    (a transaction observing its own buffered write) are excluded.

    An ordered set (a dict), in record order: the 1-STG's edge order,
    and so the cycle a check reports, must not follow string hashes.
    """
    pairs: dict[tuple[str, str, str], None] = {}
    for op in _committed_ops(recorder, item_filter):
        if op.op is not OpType.READ:
            continue
        writer = recorder.writer_of_seq(op.version_seq)
        if writer != op.txn_id:
            pairs[(writer, op.item, op.txn_id)] = None
    return pairs


def logical_write_order(
    recorder: HistoryRecorder, item_filter: ItemFilter | None = None
) -> dict[str, list[str]]:
    """Per logical item, the non-copier writers in version order.

    The version order is the commit order: versions are assigned at the
    2PC decision as ``(commit_ts, seq)`` and are monotone per item under
    that *pair* ordering — two concurrent transactions can commit in the
    opposite order to their sequence numbers, so ordering by ``seq``
    alone would be wrong. This is the natural write-order orientation for
    the candidate 1-STG. The implicit initial transaction opens every
    list.
    """
    writers: dict[str, dict[tuple[float, int], str]] = {}
    for op in _committed_ops(recorder, item_filter):
        if op.op is OpType.WRITE and op.version_seq == op.txn_seq and op.kind != "copier":
            writers.setdefault(op.item, {})[op.version_key] = op.txn_id
    order: dict[str, list[str]] = {}
    for item, by_version in writers.items():
        order[item] = [INITIAL_TXN] + [by_version[key] for key in sorted(by_version)]
    return order


def build_one_stg(
    recorder: HistoryRecorder, item_filter: ItemFilter | None = None
) -> DiGraph:
    """Candidate 1-STG with write order oriented by version order.

    Edges (§4, revised definitions):

    (i)   READ-FROM: writer → reader (original-writer provenance);
    (ii)  write-order: successive non-copier writers of each logical item,
          in version order;
    (iii) read-before: if Tb READS-X-FROM Ta and Tc is a later writer of
          X, then Tb → Tc.

    Acyclicity certifies 1-SR (Corollary); cyclicity is inconclusive in
    general — use the exhaustive checker for a verdict.
    """
    graph = DiGraph()
    order = logical_write_order(recorder, item_filter)
    reads = read_from_pairs(recorder, item_filter)
    position: dict[tuple[str, str], int] = {}
    for item, writers in order.items():
        for index, writer in enumerate(writers):
            position[(item, writer)] = index
            graph.add_node(writer)
        for earlier, later in zip(writers, writers[1:]):
            graph.add_edge(earlier, later)
    for writer, item, reader in reads:
        if recorder.kinds.get(reader) == "copier":
            continue  # copiers are not transactions of the 1C history
        graph.add_edge(writer, reader)
        writer_pos = position.get((item, writer))
        if writer_pos is None:
            # The version's writer wrote through copier provenance chains
            # only; treat it as positioned at its own write if recorded.
            continue
        for later in order[item][writer_pos + 1 :]:
            if later != reader:
                graph.add_edge(reader, later)
    return graph
