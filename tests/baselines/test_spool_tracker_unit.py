"""Direct unit tests for the spool: the durable §5 stale-copy table."""

import pytest

from repro.core.identify import StaleTracker
from repro.net import ConstantLatency, Network
from repro.sim import Kernel
from repro.site import Site
from repro.storage.copies import Version


@pytest.fixture
def tracker():
    kernel = Kernel(seed=1)
    network = Network(kernel, latency=ConstantLatency(1.0))
    site = Site(kernel, network, 1)
    return StaleTracker(site, durable=True)


def v(ts, commit):
    return Version(ts, commit, commit)


def spooled_for(tracker, site_id):
    return {
        item: entry for (item, missed), entry in tracker.entries().items()
        if missed == site_id
    }


class TestSpoolTracker:
    def test_spools_for_missed_sites(self, tracker):
        tracker.on_commit_write("X", (1, 2), (3,), value=5, version=v(1.0, 1))
        assert spooled_for(tracker, 3) == {"X": (5, v(1.0, 1))}
        assert spooled_for(tracker, 2) == {}

    def test_keeps_newest_version_only(self, tracker):
        tracker.on_commit_write("X", (1,), (3,), value=5, version=v(1.0, 1))
        tracker.on_commit_write("X", (1,), (3,), value=9, version=v(2.0, 2))
        tracker.on_commit_write("X", (1,), (3,), value=1, version=v(1.5, 3))
        assert spooled_for(tracker, 3)["X"] == (9, v(2.0, 2))

    def test_applied_site_entry_removed(self, tracker):
        tracker.on_commit_write("X", (1,), (3,), value=5, version=v(1.0, 1))
        # A later write reaches site 3: its spooled entry is obsolete.
        tracker.on_commit_write("X", (1, 3), (), value=6, version=v(2.0, 2))
        assert spooled_for(tracker, 3) == {}

    def test_clear_drops_only_target_site(self, tracker):
        tracker.on_commit_write("X", (1,), (2, 3), value=5, version=v(1.0, 1))
        tracker._handle_clear((3, (("X", v(1.0, 1)),)), src=2)
        assert spooled_for(tracker, 3) == {}
        assert spooled_for(tracker, 2) != {}

    def test_spool_survives_crash(self, tracker):
        """The spool is stable storage: multi-spooler reliability."""
        site = tracker.site
        site.power_on()
        tracker.on_commit_write("X", (1,), (3,), value=5, version=v(1.0, 1))
        site.crash()
        assert spooled_for(tracker, 3) == {"X": (5, v(1.0, 1))}

    def test_collect_handler_returns_copy(self, tracker):
        tracker.on_commit_write("X", (1,), (3,), value=5, version=v(1.0, 1))
        mine, _others, _valid_since = tracker._handle_collect(3, src=3)
        assert mine == [("X", 5, v(1.0, 1))]
        mine[0] = "mutated"
        assert spooled_for(tracker, 3)["X"] == (5, v(1.0, 1))
