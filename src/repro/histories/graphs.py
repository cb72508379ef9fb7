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
) -> typing.Iterator[Op]:
    ops = recorder.committed_ops()
    if item_filter is not None:
        ops = (op for op in ops if item_filter(op.item))
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
    graph = DiGraph()
    per_copy: dict[tuple[str, int], list[Op]] = {}
    for op in _committed_ops(recorder, item_filter):
        graph.add_node(op.txn_id)
        per_copy.setdefault((op.item, op.site), []).append(op)
    write = OpType.WRITE  # a local: an enum member's class lookup is slow
    for copy_ops in per_copy.values():
        for i, earlier in enumerate(copy_ops):
            for later in copy_ops[i + 1 :]:
                if later.txn_id == earlier.txn_id:
                    continue
                if earlier.op is write or later.op is write:
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
    return _scan(recorder, _committed_ops(recorder, item_filter))[1]


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
    return _scan(recorder, _committed_ops(recorder, item_filter))[0]


def _scan(
    recorder: HistoryRecorder, ops: typing.Iterable[Op]
) -> tuple[dict[str, list[str]], dict[tuple[str, str, str], None]]:
    """The logical write order and the READ-FROM pairs, in one pass."""
    writers: dict[str, dict[tuple[float, int, int], str]] = {}
    pairs: dict[tuple[str, str, str], None] = {}
    writer_of_seq = recorder.writers()
    read = OpType.READ  # a local: an enum member's class lookup is slow
    for _, _, txn_id, txn_seq, kind, op, item, _, version_seq, ts, commit in ops:
        if op is read:
            writer = writer_of_seq[version_seq]
            if writer != txn_id:
                pairs[(writer, item, txn_id)] = None
        elif version_seq == txn_seq and kind != "copier":
            by_version = writers.get(item)
            if by_version is None:
                by_version = writers[item] = {}
            by_version[(ts, commit, version_seq)] = txn_id
    order = {
        item: [INITIAL_TXN] + [by_version[key] for key in sorted(by_version)]
        for item, by_version in writers.items()
    }
    return order, pairs


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
    order, reads = _scan(recorder, _committed_ops(recorder, item_filter))
    # Copiers are not transactions of the 1C history.
    copiers = {txn for txn, kind in recorder.kinds.items() if kind == "copier"}
    position: dict[tuple[str, str], int] = {}
    for item, writers in order.items():
        for index, writer in enumerate(writers):
            position[(item, writer)] = index
            graph.add_node(writer)
        graph.add_edges_from(zip(writers, writers[1:]))
    for writer, item, reader in reads:
        if reader in copiers:
            continue
        graph.add_edge(writer, reader)
        writer_pos = position.get((item, writer))
        if writer_pos is None:
            # The version's writer wrote through copier provenance chains
            # only; treat it as positioned at its own write if recorded.
            continue
        later = order[item][writer_pos + 1 :]
        while reader in later:  # once per version it wrote; no self-loop
            later.remove(reader)
        graph.add_edges(reader, later)
    return graph
