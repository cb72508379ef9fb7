"""Tests for the directory-oriented available-copies baseline."""

import pytest

from repro.baselines import build_system
from repro.baselines.directories import dir_item
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.site import Site
from repro.txn import TxnConfig


def make(kernel, n_sites=3, items=None):
    return build_system(
        "directories",
        kernel,
        n_sites,
        items if items is not None else {"X": 0, "Y": 0},
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
        config=TxnConfig(rpc_timeout=20.0),
    )


@pytest.fixture
def kernel():
    return Kernel(seed=19)


def write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def read_program(item):
    def program(ctx):
        value = yield from ctx.read(item)
        return value

    return program


class TestDirectories:
    def test_roundtrip(self, kernel):
        system = make(kernel)
        kernel.run(system.submit(1, write_program("X", 3)))
        assert kernel.run(system.submit(2, read_program("X"))) == 3

    def test_exclude_on_crash(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=60)
        members = system.cluster.site(1).copies.get(dir_item("X")).value
        assert members == (1, 2)
        assert system.directory_service.exclude_committed >= 1

    def test_exclude_loops_end_without_an_exception(self, kernel, monkeypatch):
        """One EXCLUDE loop per data item of the crashed site, per
        observer; a directory item has no directory, so no loop."""
        loops = []
        spawn = Site.spawn

        def recording(site, generator, name=""):
            proc = spawn(site, generator, name)
            if name.startswith("exclude:"):
                loops.append(proc)
            return proc

        monkeypatch.setattr(Site, "spawn", recording)
        system = make(kernel)
        system.crash(3)
        kernel.run(until=200)
        assert sorted(proc.name for proc in loops) == [
            f"site{observer}:exclude:{item}:3" for observer in (1, 2) for item in "XY"
        ]
        assert all(not proc.is_alive and proc.exception is None for proc in loops)

    def test_writes_proceed_after_exclude(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=60)
        kernel.run(system.submit(1, write_program("X", 11)))
        assert system.cluster.site(2).copies.get("X").value == 11
        assert system.cluster.site(3).copies.get("X").value == 0  # excluded

    def test_include_refreshes_and_rejoins(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=60)
        kernel.run(system.submit(1, write_program("X", 11)))
        proc = system.power_on(3)
        kernel.run(proc)
        record = system.directory_service.records[-1]
        assert record.operational_at is not None
        assert record.includes_committed == 2  # X and Y
        assert system.cluster.site(3).copies.get("X").value == 11
        members = system.cluster.site(1).copies.get(dir_item("X")).value
        assert members == (1, 2, 3)

    def test_user_txns_refused_until_all_includes_done(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=60)
        system.cluster.power_on_site(3)  # powered but no INCLUDE pass run
        with pytest.raises(Exception):
            kernel.run(system.submit(3, read_program("X")))

    def test_resume_latency_scales_with_items(self, kernel):
        """The E2 contrast: INCLUDE per item makes rejoining O(#items)."""
        small = make(kernel, items={"X0": 0, "X1": 0})
        small.crash(3)
        kernel.run(until=60)
        kernel.run(small.power_on(3))
        small_latency = small.directory_service.records[-1].time_to_operational

        kernel2 = Kernel(seed=20)
        big = make(kernel2, items={f"X{i}": 0 for i in range(12)})
        big.crash(3)
        kernel2.run(until=60)
        kernel2.run(big.power_on(3))
        big_latency = big.directory_service.records[-1].time_to_operational
        assert big_latency > small_latency * 2
