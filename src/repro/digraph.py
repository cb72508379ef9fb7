"""A small insertion-ordered directed graph and its cycle search.

The paper needs two graphs (§4: the conflict graph and the 1-STG) and
the concurrency control a third (wait-for); each is built, searched for
a cycle, and dropped or grown. This module is the whole of that.

Order is part of the contract. Nodes are kept in first-mention order and
each node's out-edges in first-insertion order (a duplicate edge does not
move); :func:`find_cycle` starts from nodes and follows out-edges in
exactly that order, so *which* cycle it returns is a function of the
insertion sequence alone. The deadlock victim is chosen from that cycle,
hence a contended run's schedule depends on it: ``tests/test_digraph.py``
holds the search, edge for edge, to an independent reference
implementation fed the same insertion sequence.
"""

from __future__ import annotations

import typing

Node = typing.Hashable
Edge = tuple[Node, Node]


class NoCycle(Exception):
    """No cycle is reachable from where :func:`find_cycle` searched."""


class DiGraph:
    """Directed graph without parallel edges; self-loops allowed."""

    __slots__ = ("_succ",)

    def __init__(self) -> None:
        self._succ: dict[Node, dict[Node, None]] = {}

    def add_node(self, node: Node) -> None:
        self._succ.setdefault(node, {})

    def add_edge(self, tail: Node, head: Node) -> None:
        """Insert ``tail -> head``, mentioning ``tail`` before ``head``."""
        succ = self._succ
        succ.setdefault(tail, {})[head] = None
        succ.setdefault(head, {})

    def add_edges_from(self, edges: typing.Iterable[Edge]) -> None:
        for tail, head in edges:
            self.add_edge(tail, head)

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def has_edge(self, tail: Node, head: Node) -> bool:
        return head in self._succ.get(tail, ())

    @property
    def nodes(self) -> typing.KeysView[Node]:
        """The nodes in first-mention order (a live view)."""
        return self._succ.keys()

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def number_of_edges(self) -> int:
        return sum(len(out) for out in self._succ.values())


def find_cycle(graph: DiGraph) -> list[Edge]:
    """The first cycle a depth-first search meets, as a list of edges.

    Searches from every node in insertion order. Raises
    :class:`NoCycle` if the graph is acyclic.
    """
    succ = graph._succ
    finished: set[Node] = set()
    for start in succ:
        if start in finished:
            continue
        path = [start]
        on_path = {start}
        pending = [iter(succ[start])]
        while pending:
            for head in pending[-1]:
                if head in on_path:
                    loop = path[path.index(head) :]
                    return list(zip(loop, loop[1:] + [head]))
                if head not in finished:
                    path.append(head)
                    on_path.add(head)
                    pending.append(iter(succ[head]))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.remove(node)
                finished.add(node)
    raise NoCycle
