"""State bounded by the work in flight, not by the history (ROADMAP 15 (i)).

A steady 3-site world with 8 closed-loop clients runs at a horizon and at
four times it. At both, the kernel's pending entries stay at a small
constant (one armed entry per deadline stream, not one timer per RPC
call or orphan-watch sleep), and after quiesce no lock state and no
deadline is left: the lock table keeps only items someone holds or
waits for, and a deadline queue drops every entry it has passed.

Some state must grow with the history. Each such container, and where
its retention rule comes from:

* the history recorder's op log — §4's check builds the 1-STG over every
  physical read and write, so it keeps one row per op; held here to a
  fixed cost per op (``test_history_costs_bytes_not_objects``);
* the recorder's per-transaction table (id, seq, kind, outcome) — one
  row per transaction for the same check; it is in that same budget;
* the TM's ``_outcomes``, the DM's ``_decided`` and the stable
  ``tm.commit.<txn_id>`` keys — the presumed-abort answers to in-doubt
  participants; until every participant has acknowledged, forgetting
  one is unsafe, and the rule for forgetting them after that is
  ROADMAP 15 (ii);
* the TM stats' latency lists (``commit_latencies``, ``ack_latencies``)
  — one sample per commit, the benchmark's and experiments' input; kept
  for the run.
"""

import random
import tracemalloc

import pytest

from repro.baselines import build_rowaa_system
from repro.harness.runner import quiesce
from repro.net.latency import ConstantLatency
from repro.sim import Kernel
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

HORIZON = 150.0
#: Pending kernel entries (heap, sampled at every schedule) a steady
#: world of this size never exceeds; a timer per call in flight took
#: over a thousand.
HEAP_BOUND = 64


def run_steady(horizon):
    kernel = Kernel(seed=5)
    spec = WorkloadSpec(n_items=256, ops_per_txn=4, write_fraction=0.3)
    system = build_rowaa_system(
        kernel, 3, spec.initial_items(), latency=ConstantLatency(1.0), detection_delay=5.0
    )
    peak = [0]

    def sample(_seq):
        if len(kernel._heap) > peak[0]:
            peak[0] = len(kernel._heap)

    kernel.probes.subscribe(scheduled=sample)
    pool = ClientPool(
        system, WorkloadGenerator(spec, random.Random(5)), 8, per_client_streams=True
    )
    pool.start(horizon)
    kernel.run(until=horizon)
    committed = sum(tm.stats.committed for tm in system.tms.values())
    quiesce(kernel, system)
    return kernel, system, peak[0], committed


@pytest.mark.parametrize("horizon", [HORIZON, 4 * HORIZON])
def test_state_is_bounded_by_the_work_in_flight(horizon):
    _kernel, system, peak, committed = run_steady(horizon)
    assert committed > horizon / 10  # the world did real work
    assert peak <= HEAP_BOUND
    for site_id, dm in system.dms.items():
        assert dm.lock_manager._table == {}, site_id
        assert len(dm._orphans) == 0, site_id
        rpc = system.cluster.site(site_id).rpc
        assert all(len(queue) == 0 for queue in rpc._deadlines.values()), site_id
        assert rpc._pending == {}, site_id


#: Traced bytes the history recorder holds per recorded op: one row of
#: typed columns (34 B) plus its share of the transaction and item
#: tables. An ``Op`` named tuple per op, with its index int, was ≈ 184.
BYTES_PER_OP = 48


@pytest.mark.parametrize("horizon", [HORIZON, 4 * HORIZON])
def test_history_costs_bytes_not_objects(horizon):
    # Two frames, so a block a constructor allocates on the recorder's
    # behalf (a named tuple's generated ``__new__``) is charged to it.
    tracemalloc.start(2)
    try:
        _kernel, system, _peak, _committed = run_steady(horizon)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Every live block either of whose two innermost frames is the recorder's.
    recorder_file = tracemalloc.Filter(True, "*histories/recorder.py", all_frames=True)
    held = sum(trace.size for trace in snapshot.filter_traces([recorder_file]).traces)
    ops = len(system.recorder.ops)
    assert ops > 10 * horizon  # the log is not empty
    assert held / ops <= BYTES_PER_OP, (held, ops)
