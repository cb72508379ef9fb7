"""Incremental online 1-STG maintenance (§4, online form).

Mirrors :func:`repro.histories.graphs.build_one_stg` edge-for-edge but
grows the graph as transactions commit instead of rebuilding it post
hoc. The op stream is the omniscient :class:`HistoryRecorder`; a cursor
is pumped forward on every transaction finish and commit application.
Ops of undecided transactions are buffered; aborted ones are dropped;
committed ones contribute:

(i)   READ-FROM edges ``writer -> reader`` (original-writer provenance,
      copier readers and self-reads excluded);
(ii)  write-order edges between version-order neighbours of each logical
      item (non-copier original writes only; the implicit initial
      transaction opens every chain). On a mid-chain insertion the stale
      neighbour edge is *kept*: it is implied by transitivity, so it can
      never manufacture a cycle that the refined chain lacks;
(iii) read-before edges ``reader -> later writer``, maintained from both
      ends — a new reader points at all current later writers, a new
      writer receives an edge from every reader of an earlier version.

Every edge added for transaction T is incident to T, so any new cycle
passes through a transaction processed in the current pump; one
:func:`repro.digraph.find_cycle` rooted at each such transaction keeps
detection exact and incremental. Acyclicity certifies 1-SR (§4
Corollary); the first cycle fires ``on_cycle`` once and freezes further
checking (the graph is already uncertifiable).
"""

from __future__ import annotations

import bisect
import typing

from repro.digraph import DiGraph, NoCycle, find_cycle
from repro.histories.recorder import INITIAL_TXN, HistoryRecorder, Op, OpType

#: Sort key placing the implicit initial transaction before every real
#: version: real versions carry a positive commit sequence number.
_INITIAL_KEY = (-1.0, -1)

ItemFilter = typing.Callable[[str], bool]
CycleHook = typing.Callable[[str, list], None]


class OnlineOneStg:
    """Incrementally maintained candidate 1-STG over committed txns."""

    def __init__(
        self,
        recorder: HistoryRecorder,
        item_filter: ItemFilter | None = None,
        on_cycle: CycleHook | None = None,
    ) -> None:
        self.recorder = recorder
        self.item_filter = item_filter
        self.on_cycle = on_cycle
        self.graph = DiGraph()
        self.graph.add_node(INITIAL_TXN)
        self.cycle_found = False
        self._cursor = 0
        self._observed = 0  # ops seen by the cursor, pre-filter
        self._pending: dict[str, list[Op]] = {}
        #: Per item: committed original writers in version order, as a
        #: parallel (sorted keys, txn ids) pair of lists.
        self._order_keys: dict[str, list[tuple[float, int]]] = {}
        self._order_txns: dict[str, list[str]] = {}
        #: (item, writer) -> readers that READ-item-FROM writer.
        self._readers: dict[tuple[str, str], set[str]] = {}
        self._writer_key: dict[tuple[str, str], tuple[float, int]] = {}

    # -- feeding --------------------------------------------------------------

    def pump(self) -> set[str]:
        """Advance over new recorder ops; returns txns that gained edges."""
        touched: set[str] = set()
        ops = self.recorder.ops
        committed = self.recorder.committed
        aborted = self.recorder.aborted
        while self._cursor < len(ops):
            op = ops[self._cursor]
            self._cursor += 1
            self._observed += 1
            if self.item_filter is not None and not self.item_filter(op.item):
                continue
            if op.txn_id in committed:
                self._process(op, touched)
            elif op.txn_id not in aborted:
                self._pending.setdefault(op.txn_id, []).append(op)
        for txn_id in list(self._pending):
            if txn_id in committed:
                for op in self._pending.pop(txn_id):
                    self._process(op, touched)
            elif txn_id in aborted:
                del self._pending[txn_id]
        if touched and not self.cycle_found:
            self._check_cycles(touched)
        return touched

    # -- edge maintenance -----------------------------------------------------

    def _order_of(self, item: str) -> tuple[list[tuple[float, int]], list[str]]:
        keys = self._order_keys.get(item)
        if keys is None:
            keys = self._order_keys[item] = [_INITIAL_KEY]
            self._order_txns[item] = [INITIAL_TXN]
            self._writer_key[(item, INITIAL_TXN)] = _INITIAL_KEY
        return keys, self._order_txns[item]

    def _process(self, op: Op, touched: set[str]) -> None:
        if op.op is OpType.READ:
            self._process_read(op, touched)
        else:
            self._process_write(op, touched)

    def _process_read(self, op: Op, touched: set[str]) -> None:
        if op.kind == "copier":
            return  # copiers are not transactions of the 1C history
        try:
            writer = self.recorder.writer_of_seq(op.version_seq)
        except KeyError:
            return
        reader = op.txn_id
        if writer == reader:
            return
        self.graph.add_edge(writer, reader)
        touched.add(reader)
        self._readers.setdefault((op.item, writer), set()).add(reader)
        key = self._writer_key.get((op.item, writer))
        if key is None:
            return  # writer wrote through copier provenance chains only
        keys, txns = self._order_of(op.item)
        pos = bisect.bisect_right(keys, key)
        for later in txns[pos:]:
            if later != reader:
                self.graph.add_edge(reader, later)

    def _process_write(self, op: Op, touched: set[str]) -> None:
        if op.version_seq != op.txn_seq or op.kind == "copier":
            return  # not an original write: no write-order position
        writer = op.txn_id
        if (op.item, writer) in self._writer_key:
            return  # same logical write applied at another copy
        key = (op.version_ts, op.version_commit)
        keys, txns = self._order_of(op.item)
        pos = bisect.bisect_left(keys, key)
        keys.insert(pos, key)
        txns.insert(pos, writer)
        self._writer_key[(op.item, writer)] = key
        self.graph.add_edge(txns[pos - 1], writer)
        if pos + 1 < len(txns):
            self.graph.add_edge(writer, txns[pos + 1])
        for earlier in txns[:pos]:
            for reader in self._readers.get((op.item, earlier), ()):
                if reader != writer:
                    self.graph.add_edge(reader, writer)
        touched.add(writer)

    # -- cycle detection ------------------------------------------------------

    def _check_cycles(self, touched: set[str]) -> None:
        # Sorted so the same cycle is reported for a given seed no matter
        # how txn-id hashes land across interpreter runs.
        for txn_id in sorted(touched):
            try:
                cycle = find_cycle(self.graph, source=txn_id)
            except NoCycle:
                continue
            self.cycle_found = True
            if self.on_cycle is not None:
                self.on_cycle(txn_id, list(cycle))
            return

    # -- introspection --------------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        return {
            "ops_observed": self._observed,
            "nodes": self.graph.number_of_nodes(),
            "edges": self.graph.number_of_edges(),
            "pending_txns": len(self._pending),
        }
