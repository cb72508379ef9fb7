"""Directed tests for the §5 missing-list conservative rules.

The volatile-ML mechanism stays sound through two per-item rules checked
by the recovering site (see ``repro.core.identify.StaleTracker``): mark X
when a resident site of X is unreachable, or when a reachable resident's ML has
only been valid since *after* our outage began. These tests pin down the
exact boundaries — per-item scope of the unreachable rule under partial
replication, and the strict ``>`` comparison of the validity-epoch rule.
"""

from repro.core import RowaaConfig
from repro.storage.catalog import Catalog
from tests.core.conftest import build_system, write_program

ITEMS = {f"X{i}": 0 for i in range(4)}


def ml_config():
    return RowaaConfig(identify_mode="missing-lists", copier_mode="none")


class TestUnreachableResidentRule:
    def test_marks_only_items_resident_at_unreachable_site(self):
        """Partial replication: the rule is per item, not per site."""
        catalog = Catalog([1, 2, 3])
        catalog.add_item("P", [2, 3])  # co-resident with the crashed peer
        catalog.add_item("Q", [1, 3])  # fully covered by reachable site 1
        catalog.add_item("R", [1, 2, 3])
        kernel, system = build_system(
            items={"P": 0, "Q": 0, "R": 0}, rowaa_config=ml_config(),
            catalog=catalog,
        )
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        system.crash(2)  # site 2 is unreachable during 3's recovery
        kernel.run(until=kernel.now + 40)
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        copies = system.cluster.site(3).copies
        # P and R have the unreachable site 2 among their residents; a
        # missed update could be known only there. Q cannot: site 1 is
        # reachable and its ML predates our outage.
        assert copies.get("P").unreadable
        assert copies.get("R").unreadable
        assert not copies.get("Q").unreadable
        assert record.marked_items == 2

    def test_no_marks_when_all_residents_reachable_and_quiet(self):
        kernel, system = build_system(
            items=dict(ITEMS), rowaa_config=ml_config()
        )
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        assert record.marked_items == 0


class TestValidSinceRule:
    """``valid_since > previous session start`` — strictly greater."""

    def outage(self, kernel, system):
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        return system.sessions[3].session_started_at

    def test_epoch_equal_to_session_start_stays_precise(self):
        kernel, system = build_system(
            items=dict(ITEMS), rowaa_config=ml_config()
        )
        down_since = self.outage(kernel, system)
        for tracker in (1, 2):
            system.policies[tracker].valid_since = down_since
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        assert record.marked_items == 0

    def test_epoch_after_session_start_marks_all_resident_items(self):
        """A tracker whose ML postdates our crash may have lost entries
        naming us — every item it hosts must be marked."""
        kernel, system = build_system(
            items=dict(ITEMS), rowaa_config=ml_config()
        )
        down_since = self.outage(kernel, system)
        for tracker in (1, 2):
            system.policies[tracker].valid_since = down_since + 0.001
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        # Full replication: both trackers host everything.
        assert record.marked_items == len(ITEMS)

    def test_one_stale_tracker_is_enough(self):
        """The rule triggers per item on ANY suspect resident, even if
        another tracker's ML is old enough to be trusted."""
        kernel, system = build_system(
            items=dict(ITEMS), rowaa_config=ml_config()
        )
        down_since = self.outage(kernel, system)
        system.policies[2].valid_since = down_since + 5.0  # only one
        record = kernel.run(system.power_on(3))
        assert record.succeeded
        assert record.marked_items == len(ITEMS)


class TestTrackerHandlers:
    """Directed coverage of the collect/clear RPC handler contracts."""

    def test_collect_partitions_entries_and_reports_epoch(self):
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=ml_config())
        policy = system.policies[1]
        policy.on_commit_write("X0", applied_sites=(1, 2), missed_sites=(3,))
        policy.on_commit_write("X1", applied_sites=(1, 3), missed_sites=(2,))
        mine, others, valid_since = policy._handle_collect(3, src=3)
        assert [item for item, _value, _version in mine] == ["X0"]
        assert others == [("X1", 2)]
        assert valid_since == policy.valid_since
        # Collect is read-only: nothing was removed yet.
        assert ("X0", 3) in policy.entries()

    def test_clear_removes_only_named_pairs(self):
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=ml_config())
        policy = system.policies[1]
        policy.on_commit_write("X0", applied_sites=(), missed_sites=(3,))
        policy.on_commit_write("X1", applied_sites=(), missed_sites=(2,))
        assert policy._handle_clear((3, (("X0", None),)), src=3)
        assert ("X0", 3) not in policy.entries()
        assert ("X1", 2) in policy.entries()

    def test_write_time_maintenance_add_then_remove(self):
        """§5: a successful write removes the pair at written sites."""
        kernel, system = build_system(items=dict(ITEMS), rowaa_config=ml_config())
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit_with_retry(1, write_program("X0", 1), attempts=5))
        assert ("X0", 3) in system.policies[1].entries()
        assert ("X0", 3) in system.policies[2].entries()
