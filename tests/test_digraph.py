"""``repro.digraph`` against ``networkx``, its test-only oracle.

The deadlock victim, every ``CheckResult.detail`` and every auditor cycle
alert are read off the cycle ``find_cycle`` returns, so replacing the
graph library preserves schedules only if the in-tree search returns the
*same* cycle, edge for edge, on the same insertion sequence. This file is
that proof; ``networkx`` is imported nowhere else in the repository.
"""

import random

import pytest

from repro.baselines import build_rowaa_system
from repro.digraph import DiGraph, NoCycle, find_cycle
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

networkx = pytest.importorskip("networkx")


def both(insertions):
    """The same insertion sequence applied to ours and to the oracle's."""
    ours, oracle = DiGraph(), networkx.DiGraph()
    for insertion in insertions:
        if len(insertion) == 1:
            ours.add_node(*insertion)
            oracle.add_node(*insertion)
        else:
            ours.add_edge(*insertion)
            oracle.add_edge(*insertion)
    return ours, oracle


def cycles(ours, oracle):
    """``(ours, oracle's)`` first cycle; ``None`` for no cycle."""
    try:
        mine = find_cycle(ours)
    except NoCycle:
        mine = None
    try:
        theirs = list(networkx.find_cycle(oracle, None))
    except networkx.NetworkXNoCycle:
        theirs = None
    return mine, theirs


def random_insertions(rng):
    """≤ 12 txn-id-shaped nodes, ≤ 24 insertions: edges (self-loops and
    duplicates included) and bare ``add_node`` calls."""
    names = [f"{rng.choice('TCP')}{rng.randint(1, 40)}@{rng.randint(1, 3)}"
             for _ in range(rng.randint(1, 12))]
    insertions = []
    for _ in range(rng.randint(0, 24)):
        if rng.random() < 0.15:
            insertions.append((rng.choice(names),))
        else:
            insertions.append((rng.choice(names), rng.choice(names)))
    return names, insertions


@pytest.mark.parametrize("seed", range(4))
def test_random_digraphs_agree_edge_for_edge(seed):
    rng = random.Random(seed)
    found = 0
    for _ in range(5000):
        names, insertions = random_insertions(rng)
        ours, oracle = both(insertions)
        assert list(ours.nodes) == list(oracle.nodes)
        assert ours.number_of_nodes() == oracle.number_of_nodes()
        assert ours.number_of_edges() == oracle.number_of_edges()
        for tail in names:
            assert ours.has_node(tail) == oracle.has_node(tail)
            for head in names:
                assert ours.has_edge(tail, head) == oracle.has_edge(tail, head)
        mine, theirs = cycles(ours, oracle)
        assert mine == theirs, insertions
        found += mine is not None
    assert found > 3_000  # the comparison is not of two empty answers


def test_add_edges_from_is_add_edge_in_order():
    edges = [("b", "a"), ("a", "c"), ("b", "a"), ("c", "c"), ("c", "b")]
    ours, oracle = DiGraph(), networkx.DiGraph()
    ours.add_edges_from(edges)
    oracle.add_edges_from(edges)
    assert list(ours.nodes) == list(oracle.nodes) == ["b", "a", "c"]
    assert cycles(ours, oracle) == ([("c", "c")], [("c", "c")])


def test_cycle_starts_at_the_back_edges_head():
    ours, _ = both([("s", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
    assert find_cycle(ours) == [("a", "b"), ("b", "c"), ("c", "a")]


def test_deadlock_victims_of_a_contended_run_agree():
    """Every sweep of a short ``hot_contention``-shaped run (16 zipf(1.0)
    items, half writes, 8 clients): the wait-for edges the detector saw
    give the same cycle under both — hence the same victim, which is the
    youngest transaction *of that cycle*."""
    spec = WorkloadSpec(n_items=16, ops_per_txn=4, write_fraction=0.5, zipf_s=1.0)
    kernel = Kernel(seed=11)
    system = build_rowaa_system(
        kernel, 3, spec.initial_items(), latency=ConstantLatency(1.0)
    )
    detector = system.deadlock_detector
    live_managers = detector._lock_managers
    sweeps = []

    def spy():
        managers = list(live_managers())
        sweeps.append([edge for manager in managers for edge in manager.wait_edges()])
        return managers

    detector._lock_managers = spy
    pool = ClientPool(
        system, WorkloadGenerator(spec, random.Random(11)), 8,
        think_time=1.0, per_client_streams=True,
    )
    pool.start(600.0)
    kernel.run(until=600.0)
    system.stop()
    kernel.run(until=650.0)

    chosen = 0
    for edges in sweeps:
        mine, theirs = cycles(*both(edges))
        assert mine == theirs
        chosen += mine is not None
    assert chosen == detector.victims_chosen > 5
