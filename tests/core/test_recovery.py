"""End-to-end tests of the §3.4 recovery procedure."""

from repro.site import SiteStatus
from tests.core.conftest import build_system, read_program, write_program


class TestBasicRecovery:
    def test_recovery_completes_and_site_serves_users(self, rig):
        kernel, system = rig
        system.crash(3)
        kernel.run(until=40)
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        assert system.cluster.site(3).status is SiteStatus.UP
        value = kernel.run(system.submit_with_retry(3, read_program("X"), attempts=5))
        assert value == 0

    def test_missed_update_invisible_to_readers(self, rig):
        """After recovery, a read at the recovered site never returns the
        stale value — it redirects or waits for the copier."""
        kernel, system = rig
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X", 123)))
        kernel.run(system.power_on(3))
        value = kernel.run(system.submit_with_retry(3, read_program("X"), attempts=5))
        assert value == 123

    def test_marks_applied_before_operational(self, rig):
        kernel, system = rig
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X", 5)))
        record = kernel.run(system.power_on(3))
        assert record.marked_items == 2  # X and Y under mark-all
        assert record.identified_at <= record.operational_at

    def test_time_to_operational_is_short(self, rig):
        """The headline claim: operational well before data is caught up,
        within a handful of round trips."""
        kernel, system = rig
        system.crash(3)
        kernel.run(until=40)
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        assert record.type1_attempts == 1
        assert record.time_to_operational < 30  # a few RTTs at latency 1

    def test_copiers_drain_staleness_in_background(self, rig):
        kernel, system = rig
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X", 9)))
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 200)
        assert system.unreadable_counts()[3] == 0
        assert system.copy_value(3, "X") == 9

    def test_recovery_record_bookkeeping(self, rig):
        kernel, system = rig
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.power_on(3))
        records = system.recovery_records()
        assert len(records) == 1
        record = records[0]
        assert record.site_id == 3
        assert record.power_on_at < record.operational_at


class TestRepeatedAndConcurrentFailures:
    def test_two_sites_recover_concurrently(self):
        kernel, system = build_system(n_sites=4, detection_delay=2.0, seed=3)
        system.crash(3)
        system.crash(4)
        kernel.run(until=60)
        p3 = system.power_on(3)
        p4 = system.power_on(4)
        r3 = kernel.run(p3)
        r4 = kernel.run(p4)
        assert r3.succeeded and r4.succeeded
        kernel.run(until=kernel.now + 100)
        view = system.nominal_view(1)
        assert view[3] == r3.session_number
        assert view[4] == r4.session_number
        # Each recovered site sees the other as up too.
        assert system.nominal_view(3)[4] == r4.session_number
        assert system.nominal_view(4)[3] == r3.session_number

    def test_crash_during_recovery_is_survived(self):
        """Site 2 crashes while site 3's type-1 is mid-flight; recovery
        excludes it (type 2) and completes against site 1 (§3.4 step 4)."""
        kernel, system = build_system(detection_delay=3.0, seed=5)
        system.crash(3)
        kernel.run(until=40)
        recovery = system.power_on(3)

        def saboteur():
            yield kernel.timeout(1.5)  # inside the recovery window
            system.crash(2)

        kernel.process(saboteur())
        record = kernel.run(recovery)
        assert record.succeeded
        assert system.nominal_view(1)[2] == 0
        assert system.nominal_view(1)[3] == record.session_number

    def test_last_survivor_enables_recovery(self):
        """A failed site can recover as long as ONE operational site
        remains (the paper's resilience claim)."""
        kernel, system = build_system(detection_delay=2.0, seed=9)
        system.crash(2)
        system.crash(3)
        kernel.run(until=60)
        assert system.cluster.operational_sites() == [1]
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        assert system.cluster.operational_sites() == [1, 3]

    def test_recovery_blocks_with_no_operational_site(self):
        """With every other site down, recovery cannot complete (it keeps
        retrying); it succeeds once a peer recovers... which also cannot
        happen here — so both stay RECOVERING. Total failure blocks by
        design (the paper requires one operational site)."""
        kernel, system = build_system(detection_delay=2.0, seed=11)
        system.crash(1)
        system.crash(2)
        system.crash(3)
        proc = system.power_on(3)
        kernel.run(until=kernel.now + 300)
        assert system.cluster.site(3).status is SiteStatus.RECOVERING
        assert not proc.triggered or not proc.value.succeeded  # type: ignore[union-attr]

    def test_three_crash_recover_cycles(self, rig):
        kernel, system = rig
        for round_no in range(3):
            kernel.run(
                system.submit_with_retry(1, write_program("X", round_no), attempts=5)
            )
            system.crash(3)
            kernel.run(until=kernel.now + 40)
            record = kernel.run(system.power_on(3))
            assert record.succeeded
            kernel.run(until=kernel.now + 120)
            assert system.copy_value(3, "X") == round_no
        assert system.cluster.site(3).crash_count == 3


class TestAvailabilityDuringOutage:
    def test_survivors_serve_reads_and_writes_throughout(self, rig):
        kernel, system = rig
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X", 50)))
        kernel.run(system.submit(2, write_program("Y", 60)))
        assert kernel.run(system.submit(2, read_program("X"))) == 50
        assert kernel.run(system.submit(1, read_program("Y"))) == 60

    def test_writes_during_outage_do_not_block(self, rig):
        """ROWAA never waits on a nominally-down site (§2's motivation)."""
        kernel, system = rig
        system.crash(3)
        kernel.run(until=40)
        start = kernel.now
        kernel.run(system.submit(1, write_program("X", 1)))
        # One round trip to site 2 plus 2PC: a handful of time units, not
        # an rpc_timeout (30) stall.
        assert kernel.now - start < 15
