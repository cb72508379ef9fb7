"""Unit-level tests for CopierService internals."""

from repro.core import RowaaConfig
from tests.core.conftest import build_system, read_program, write_program


def stale_site3(kernel, system, items=("X",)):
    system.crash(3)
    kernel.run(until=kernel.now + 40)
    for item in items:
        kernel.run(system.submit(1, write_program(item, 1)))
    return system.power_on(3)


class TestInflightDedup:
    def test_demand_trigger_dedupes_concurrent_reads(self):
        config = RowaaConfig(copier_mode="demand")
        kernel, system = build_system(rowaa_config=config, seed=101)
        kernel.run(stale_site3(kernel, system))
        # Several concurrent reads at the recovered site all hit the
        # unreadable copy; only ONE copier transaction must run.
        procs = [
            system.submit_with_retry(3, read_program("X"), attempts=4)
            for _ in range(5)
        ]
        for proc in procs:
            assert kernel.run(proc) == 1
        kernel.run(until=kernel.now + 100)
        system.stop()
        stats = system.copiers[3].stats
        assert stats.copies_performed == 1

    def test_demand_mode_skips_ns_items(self):
        config = RowaaConfig(copier_mode="demand")
        kernel, system = build_system(rowaa_config=config, seed=102)
        service = system.copiers[3]
        service._on_demand_trigger("NS[1]")  # must be ignored silently
        kernel.run(until=kernel.now + 5)
        assert service.stats.copies_performed == 0


class TestModeWiring:
    def test_none_mode_registers_no_demand_hook(self):
        config = RowaaConfig(copier_mode="none")
        _kernel, system = build_system(rowaa_config=config, seed=103)
        for site_id in system.cluster.site_ids:
            assert system.dms[site_id].unreadable_read_hooks == []

    def test_eager_mode_registers_no_demand_hook(self):
        config = RowaaConfig(copier_mode="eager")
        _kernel, system = build_system(rowaa_config=config, seed=104)
        for site_id in system.cluster.site_ids:
            assert system.dms[site_id].unreadable_read_hooks == []

    def test_both_mode_registers_demand_hook(self):
        config = RowaaConfig(copier_mode="both")
        _kernel, system = build_system(rowaa_config=config, seed=105)
        assert all(
            len(system.dms[s].unreadable_read_hooks) == 1
            for s in system.cluster.site_ids
        )


class TestDrainMarker:
    def test_drained_at_set_once_per_epoch(self):
        config = RowaaConfig(copier_mode="eager")
        kernel, system = build_system(rowaa_config=config, seed=106)
        kernel.run(stale_site3(kernel, system))
        kernel.run(until=kernel.now + 150)
        first = system.copiers[3].drained_at
        assert first is not None
        # A second recovery epoch resets and re-sets the marker.
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit(1, write_program("Y", 2)))
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 150)
        system.stop()
        second = system.copiers[3].drained_at
        assert second is not None and second > first

    def test_cleared_by_user_write_counted(self):
        config = RowaaConfig(copier_mode="eager")
        kernel, system = build_system(rowaa_config=config, seed=107)
        recovery = stale_site3(kernel, system, items=("X", "Y"))
        # A user write lands on Y before its copier gets there (retry
        # pressure makes this reliable across seeds: write immediately).
        kernel.run(recovery)
        kernel.run(system.submit_with_retry(1, write_program("Y", 9), attempts=6))
        kernel.run(until=kernel.now + 200)
        system.stop()
        stats = system.copiers[3].stats
        # Either the copier refreshed Y first or the user write beat it;
        # both end consistent, and the counters reflect which happened.
        total = stats.copies_performed + stats.copies_skipped_version + stats.cleared_by_user_write
        assert total >= 2
        assert system.copy_value(3, "Y") == 9
