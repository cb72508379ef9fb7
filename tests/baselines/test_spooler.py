"""Tests for the spooled-redo recovery baseline."""

import pytest

from repro.baselines import build_system
from repro.baselines.spooler import REPLAY_COST_PER_UPDATE
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.txn import TxnConfig


def make(kernel, items=None):
    return build_system(
        "spooler",
        kernel,
        3,
        items if items is not None else {f"X{i}": 0 for i in range(6)},
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
        config=TxnConfig(rpc_timeout=20.0),
    )


@pytest.fixture
def kernel():
    return Kernel(seed=31)


def write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def spooled_for(system, site_id, missed):
    return {
        item: entry for (item, target), entry in system.policies[site_id].entries().items()
        if target == missed
    }


def read_program(item):
    def program(ctx):
        value = yield from ctx.read(item)
        return value

    return program


class TestSpooler:
    def test_writes_spooled_for_down_site(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X0", 5)))
        spooled = spooled_for(system, 1, 3)
        assert "X0" in spooled
        assert spooled["X0"][0] == 5

    def test_replay_happens_before_operational(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=40)
        for i in range(4):
            kernel.run(system.submit(1, write_program(f"X{i}", 100 + i)))
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        assert record.marked_items == 4  # updates replayed
        # Data was already current the moment the site turned operational
        # (no unreadable marks, no copiers).
        for i in range(4):
            assert system.cluster.site(3).copies.get(f"X{i}").value == 100 + i
        assert system.unreadable_counts()[3] == 0

    def test_spool_cleared_after_recovery(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X0", 5)))
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 30)
        assert spooled_for(system, 1, 3) == {}

    def test_resume_latency_scales_with_missed_updates(self, kernel):
        """The §1 criticism: the more you missed, the longer you replay."""
        system = make(kernel)
        system.crash(3)
        kernel.run(until=40)
        for i in range(6):
            kernel.run(system.submit(1, write_program(f"X{i}", i)))
        record_many = kernel.run(system.power_on(3))

        kernel2 = Kernel(seed=32)
        system2 = make(kernel2)
        system2.crash(3)
        kernel2.run(until=40)
        record_none = kernel2.run(system2.power_on(3))

        # Isolate the replay phase (power_on → identified): it grows by
        # one REPLAY_COST_PER_UPDATE per missed update.
        replay_many = record_many.identified_at - record_many.power_on_at
        replay_none = record_none.identified_at - record_none.power_on_at
        assert replay_many >= replay_none + 6 * REPLAY_COST_PER_UPDATE

    def test_last_writer_wins_compression(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=40)
        for value in (1, 2, 3):
            kernel.run(system.submit(1, write_program("X0", value)))
        spooled = spooled_for(system, 1, 3)
        assert spooled["X0"][0] == 3  # only the newest version kept
        kernel.run(system.power_on(3))
        assert system.cluster.site(3).copies.get("X0").value == 3

    def test_what_a_down_peer_may_know_of_is_marked(self, kernel):
        """§5's residency rule: site 2 is down, so its spool may hold the
        only, or the newest, entry naming site 3. Site 3 marks every copy
        site 2 holds instead of replaying what site 1 spooled."""
        system = make(kernel)
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X0", 5)))
        system.crash(2)
        kernel.run(until=kernel.now + 40)
        record = kernel.run(system.power_on(3))
        assert record.succeeded and record.marked_items == 6
        copies = system.cluster.site(3).copies
        assert all(copies.get(f"X{i}").unreadable for i in range(6))
        assert copies.get("X0").value == 0


class TestSpoolerWindow:
    """A write that commits while the recovering site replays its spool
    misses that site too. The replay's clear must not drop its entry,
    and the delta pass after the announcement must replay it."""

    @pytest.mark.parametrize("y_spooled", [False, True], ids=["fresh-y", "spooled-y"])
    def test_write_during_replay_is_not_lost(self, kernel, y_spooled):
        names = [f"X{i}" for i in range(19)] + ["Y" if y_spooled else "X19"]
        system = make(kernel, items={**{f"X{i}": 0 for i in range(20)}, "Y": 0})
        system.crash(3)
        kernel.run(until=40)
        for value, item in enumerate(names, start=1):
            kernel.run(system.submit(1, write_program(item, value)))
        recovery = system.power_on(3)
        kernel.run(until=kernel.now + 4)
        writer = system.submit_with_retry(1, write_program("Y", 7), attempts=5)
        record = kernel.run(recovery)
        assert record.succeeded
        assert writer.processed  # committed before the site rejoined
        kernel.run(until=kernel.now + 30)
        assert system.copy_value(3, "Y") == 7
        assert kernel.run(system.submit(3, read_program("Y"))) == 7
