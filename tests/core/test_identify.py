"""Tests for the §5 out-of-date identification policies."""

from repro.core import RowaaConfig
from repro.txn.payloads import MarkMissedRequest
from tests.core.conftest import build_system, write_program


def outage_with_writes(kernel, system, writes, victim=3, writer=1):
    """Crash ``victim``, commit ``writes`` at ``writer``, return recovery."""
    system.crash(victim)
    kernel.run(until=kernel.now + 40)
    for item, value in writes:
        kernel.run(system.submit_with_retry(writer, write_program(item, value), attempts=5))
    return system.power_on(victim)


ITEMS = {f"X{i}": 0 for i in range(8)}


class TestMarkAll:
    def test_marks_everything(self):
        config = RowaaConfig(identify_mode="mark-all", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        record = kernel.run(outage_with_writes(kernel, system, [("X0", 1)]))
        assert record.marked_items == len(ITEMS)


class TestFailLocks:
    def test_marks_only_missed_items(self):
        config = RowaaConfig(identify_mode="fail-locks", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        record = kernel.run(
            outage_with_writes(kernel, system, [("X0", 1), ("X3", 2)])
        )
        assert record.marked_items == 2
        assert system.cluster.site(3).copies.get("X0").unreadable
        assert system.cluster.site(3).copies.get("X3").unreadable
        assert not system.cluster.site(3).copies.get("X1").unreadable

    def test_no_writes_no_marks(self):
        config = RowaaConfig(identify_mode="fail-locks", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        record = kernel.run(outage_with_writes(kernel, system, []))
        assert record.marked_items == 0

    def test_entries_cleared_after_collection(self):
        config = RowaaConfig(identify_mode="fail-locks", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        kernel.run(outage_with_writes(kernel, system, [("X0", 1)]))
        kernel.run(until=kernel.now + 20)
        for site_id in (1, 2):
            policy = system.policies[site_id]
            assert not any(target == 3 for _item, target in policy.entries())

    def test_fail_locks_survive_tracker_crash(self):
        """Stable tables: a tracker site that crashes and recovers still
        remembers the fail-locks it set (the multi-failure soundness
        argument for making them stable)."""
        config = RowaaConfig(identify_mode="fail-locks", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config, n_sites=4)
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit_with_retry(1, write_program("X0", 1), attempts=5))
        # Tracker site 1 crashes and recovers while 3 is still down.
        system.crash(1)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(1))
        kernel.run(until=kernel.now + 100)
        assert ("X0", 3) in system.policies[1].entries()
        # Site 3's recovery still learns about X0.
        kernel.run(system.power_on(3))
        assert system.cluster.site(3).copies.get("X0").unreadable

    def test_a_reported_miss_survives_a_crash_in_the_same_instant(self):
        """``dm.mark_missed`` answers only once its entries are durable:
        a crash at the very instant it returns keeps them."""
        config = RowaaConfig(identify_mode="fail-locks", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        now = kernel.now
        assert system.dms[1]._handle_mark_missed(MarkMissedRequest("T9", (("X5", 3),)), 2)
        system.crash(1)
        assert kernel.now == now
        assert kernel.run(system.power_on(1)).succeeded
        assert system.policies[1].entries()[("X5", 3)] == (None, None)

    def test_a_clear_survives_a_crash_in_the_same_instant(self):
        """``stale.clear`` answers only once its drops are durable."""
        config = RowaaConfig(identify_mode="fail-locks", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit_with_retry(1, write_program("X0", 1), attempts=5))
        assert ("X0", 3) in system.policies[1].entries()
        assert system.policies[1]._handle_clear((3, (("X0", None),)), 3)
        system.crash(1)
        assert kernel.run(system.power_on(1)).succeeded
        assert ("X0", 3) not in system.policies[1].entries()

    def test_conservative_when_resident_down(self):
        """With another resident site unreachable, every item it holds is
        conservatively marked (its table may name us)."""
        config = RowaaConfig(identify_mode="fail-locks", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        system.crash(3)
        kernel.run(until=40)
        system.crash(2)
        kernel.run(until=kernel.now + 40)
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        # Full replication: site 2 holds everything, so everything marks.
        assert record.marked_items == len(ITEMS)


class TestMissingLists:
    def test_marks_only_missed_items_single_failure(self):
        config = RowaaConfig(identify_mode="missing-lists", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        record = kernel.run(
            outage_with_writes(kernel, system, [("X1", 5), ("X7", 6)])
        )
        assert record.marked_items == 2

    def test_write_removes_obsolete_entries(self):
        """A write that reaches a previously-missed copy clears the stale
        marker about it at the written sites (§5's removal rule)."""
        config = RowaaConfig(identify_mode="missing-lists", copier_mode="none")
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=config)
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit(1, write_program("X0", 1)))
        assert ("X0", 3) in system.policies[1].entries()
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        kernel.run(until=kernel.now + 30)
        # The recovered site participates in a fresh write of X0: every
        # tracker must drop the now-obsolete entry.
        kernel.run(system.submit_with_retry(1, write_program("X0", 2), attempts=5))
        for site_id in (1, 2):
            assert ("X0", 3) not in system.policies[site_id].entries()

    def test_volatile_ml_falls_back_to_conservative(self):
        """A tracker site that rebooted during our outage has an ML that
        may be incomplete: its valid_since postdates our crash, so we
        must conservatively mark (vs fail-locks, which stay precise)."""
        config = RowaaConfig(identify_mode="missing-lists", copier_mode="none")
        kernel, system = build_system(
            items=dict(ITEMS), rowaa_config=config, n_sites=4
        )
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.submit_with_retry(1, write_program("X0", 1), attempts=5))
        system.crash(1)  # tracker loses its volatile ML...
        kernel.run(until=kernel.now + 40)
        kernel.run(system.power_on(1))
        kernel.run(until=kernel.now + 100)
        # ...but its own recovery inherits (X0, 3) back from the peers'
        # MLs (§5's inheritance rule) — the mechanism self-heals when at
        # least one tracker survived.
        assert ("X0", 3) in system.policies[1].entries()
        record = kernel.run(system.power_on(3))
        # Conservative rule: site 1 rebooted after we went down, so all
        # its resident items (everything, full replication) get marked.
        assert record.marked_items == len(ITEMS)

    def test_recovering_site_inherits_other_entries(self):
        """§5: 'Site i also forms its own ML using the entries (X, j)...
        seen in the MLs at other operational sites'."""
        config = RowaaConfig(identify_mode="missing-lists", copier_mode="none")
        kernel, system = build_system(
            items=dict(ITEMS), rowaa_config=config, n_sites=4
        )
        # Two victims: 3 and 4. Writes miss both; 3 recovers first and
        # should inherit the (item, 4) entries.
        system.crash(3)
        system.crash(4)
        kernel.run(until=60)
        kernel.run(system.submit_with_retry(1, write_program("X2", 9), attempts=5))
        kernel.run(system.power_on(3))
        assert ("X2", 4) in system.policies[3].entries()
