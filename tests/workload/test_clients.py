"""Tests for the client drivers."""

import random

import pytest

from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec
from tests.core.conftest import build_system


@pytest.fixture
def rig():
    return build_system(seed=81, items={f"X{i}": 0 for i in range(8)})


def make_generator(seed=1, **overrides):
    spec = WorkloadSpec(n_items=8, ops_per_txn=2, write_fraction=0.3, **overrides)
    return WorkloadGenerator(spec, random.Random(seed))


class TestClientPool:
    def test_closed_loop_commits_work(self, rig):
        kernel, system = rig
        pool = ClientPool(system, make_generator(), n_clients=3, think_time=2.0)
        pool.start(200.0)
        kernel.run(until=250.0)
        system.stop()
        kernel.run(until=260.0)
        assert pool.stats.committed > 10
        assert pool.stats.availability > 0.9
        assert len(pool.stats.latencies) == pool.stats.committed

    def test_refused_when_home_down(self, rig):
        kernel, system = rig
        system.crash(2)
        kernel.run(until=10)
        pool = ClientPool(system, make_generator(), n_clients=1,
                          think_time=2.0, home_sites=[2])
        pool.start(60.0)
        kernel.run(until=80.0)
        assert pool.stats.refused > 0
        assert pool.stats.committed == 0

    def test_empty_stats_availability_is_one(self):
        from repro.workload import ClientStats

        assert ClientStats().availability == 1.0
