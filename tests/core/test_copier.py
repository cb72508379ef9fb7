"""Tests for copier transactions and scheduling (§3.2, §5)."""

import pytest

from repro.core import RowaaConfig
from repro.storage import Catalog
from tests.core.conftest import build_system, read_program, write_program


def crash_write_recover(kernel, system, writes):
    """Crash site 3, apply ``writes`` at site 1, power site 3 back on."""
    system.crash(3)
    kernel.run(until=kernel.now + 40)
    for item, value in writes:
        kernel.run(system.submit(1, write_program(item, value)))
    return system.power_on(3)


class TestEagerCopiers:
    def test_eager_mode_refreshes_without_reads(self):
        config = RowaaConfig(copier_mode="eager")
        kernel, system = build_system(rowaa_config=config)
        recovery = crash_write_recover(kernel, system, [("X", 11), ("Y", 22)])
        kernel.run(recovery)
        kernel.run(until=kernel.now + 200)
        assert system.copy_value(3, "X") == 11
        assert system.copy_value(3, "Y") == 22
        assert system.unreadable_counts()[3] == 0
        assert system.copiers[3].drained_at is not None

    def test_version_skip_avoids_data_transfer(self):
        """Mark-all marks everything, but only X actually changed; the §5
        version comparison skips copying Y."""
        config = RowaaConfig(copier_mode="eager", version_skip=True)
        kernel, system = build_system(rowaa_config=config)
        recovery = crash_write_recover(kernel, system, [("X", 11)])  # Y untouched
        kernel.run(recovery)
        kernel.run(until=kernel.now + 200)
        stats = system.copiers[3].stats
        assert stats.copies_performed == 1  # X
        assert stats.copies_skipped_version == 1  # Y
        assert stats.bytes_copied == 1

    def test_without_version_skip_everything_copies(self):
        config = RowaaConfig(copier_mode="eager", version_skip=False)
        kernel, system = build_system(rowaa_config=config)
        recovery = crash_write_recover(kernel, system, [("X", 11)])
        kernel.run(recovery)
        kernel.run(until=kernel.now + 200)
        stats = system.copiers[3].stats
        assert stats.copies_performed == 2
        assert stats.bytes_copied == 2


class TestDemandCopiers:
    def test_read_triggers_copier(self):
        config = RowaaConfig(copier_mode="demand")
        kernel, system = build_system(rowaa_config=config)
        recovery = crash_write_recover(kernel, system, [("X", 33)])
        kernel.run(recovery)
        # No eager copiers: the mark persists until a read arrives.
        kernel.run(until=kernel.now + 50)
        assert system.cluster.site(3).copies.get("X").unreadable
        assert kernel.run(system.submit_with_retry(3, read_program("X"), attempts=5)) == 33
        kernel.run(until=kernel.now + 100)
        assert not system.cluster.site(3).copies.get("X").unreadable
        assert system.copy_value(3, "X") == 33

    def test_none_mode_leaves_marks_until_user_write(self):
        config = RowaaConfig(copier_mode="none")
        kernel, system = build_system(rowaa_config=config)
        recovery = crash_write_recover(kernel, system, [("X", 44)])
        kernel.run(recovery)
        kernel.run(until=kernel.now + 100)
        assert system.cluster.site(3).copies.get("X").unreadable
        kernel.run(system.submit_with_retry(1, write_program("X", 45), attempts=5))
        assert not system.cluster.site(3).copies.get("X").unreadable
        assert system.copy_value(3, "X") == 45


class TestCopierEdgeCases:
    def test_totally_failed_item_stays_unreadable(self):
        """X resides only at sites 1 and 3; crash both, recover 3 with only
        site 2 up: no readable copy exists — §3.2's 'totally failed' case."""
        catalog = Catalog([1, 2, 3])
        catalog.add_item("X", [1, 3])
        catalog.add_item("Y", [1, 2, 3])
        config = RowaaConfig(copier_mode="eager")
        kernel, system = build_system(
            items={"X": 0, "Y": 0}, catalog=catalog, rowaa_config=config
        )
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X", 7)))
        system.crash(1)
        kernel.run(until=kernel.now + 40)
        record = kernel.run(system.power_on(3))
        assert record.succeeded  # recovery itself needs only site 2
        kernel.run(until=kernel.now + 300)
        assert system.cluster.site(3).copies.get("X").unreadable
        assert system.copiers[3].stats.total_failures >= 1
        # Y, replicated at site 2, recovered fine.
        assert not system.cluster.site(3).copies.get("Y").unreadable

    def test_reads_of_totally_failed_item_abort(self):
        catalog = Catalog([1, 2, 3])
        catalog.add_item("X", [1, 3])
        catalog.add_item("Y", [1, 2, 3])
        kernel, system = build_system(items={"X": 0, "Y": 0}, catalog=catalog)
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X", 7)))
        system.crash(1)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(3))
        from repro.errors import TransactionAborted

        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(2, read_program("X")))

    def test_user_write_wins_race_with_copier(self):
        """If a user write commits first, the copier observes the cleared
        mark and does nothing."""
        config = RowaaConfig(copier_mode="eager")
        kernel, system = build_system(rowaa_config=config, seed=21)
        recovery = crash_write_recover(kernel, system, [("X", 1), ("Y", 2)])
        # Immediately hammer writes so some copier loses the race.
        for value in range(3):
            system.submit_with_retry(1, write_program("X", 100 + value), attempts=8)
        kernel.run(recovery)
        kernel.run(until=kernel.now + 300)
        system.stop()
        assert system.unreadable_counts()[3] == 0
        # All copies of X converged on the same final value.
        finals = {system.copy_value(s, "X") for s in (1, 2, 3)}
        assert len(finals) == 1
