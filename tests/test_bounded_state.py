"""State bounded by the work in flight, not by the history (ROADMAP 15 (i)).

A steady 3-site world with 8 closed-loop clients runs at a horizon and at
four times it. At both, the kernel's pending entries stay at a small
constant (one armed entry per deadline stream, not one timer per RPC
call or orphan-watch sleep), and after quiesce no lock state and no
deadline is left: the lock table keeps only items someone holds or
waits for, and a deadline queue drops every entry it has passed.
"""

import random

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
