"""Deterministic regression for the identification delta pass
(DESIGN.md §6.5).

A write that commits *between* the recovery's collection pass and the
type-1 commit records a miss the collection never saw. Without the
post-announcement delta pass, the recovering site would serve a
stale-but-readable copy (first caught as replica divergence in the
8-site rolling-outage test). Here the window is forced open
deterministically by stalling the collection.
"""

import pytest

from repro.core import RowaaConfig
from tests.core.conftest import build_system, read_program, write_program


def _stall_first_collection(tracker, kernel, stall, on_window):
    """After the tracker's first collection, hold the recovery for a
    while so a racing write can commit in the window."""
    collect = tracker.collect_stale

    def stalling(manager):
        items = yield from collect(manager)
        tracker.collect_stale = collect  # once only
        on_window()
        yield kernel.timeout(stall)
        return items

    tracker.collect_stale = stalling


@pytest.mark.parametrize("mode", ["fail-locks", "missing-lists"])
def test_write_in_collection_window_is_still_marked(mode):
    config = RowaaConfig(identify_mode=mode, copier_mode="eager")
    kernel, system = build_system(
        items={"A": 0, "B": 0}, rowaa_config=config, seed=121
    )
    system.crash(3)
    kernel.run(until=kernel.now + 40)
    kernel.run(system.submit(1, write_program("A", 1)))  # pre-collection miss

    fired = []

    def racing_write():
        # Launched exactly when the collection pass has finished.
        proc = system.submit_with_retry(1, write_program("B", 2), attempts=5)
        fired.append(proc)

    _stall_first_collection(
        system.policies[3], kernel, stall=40.0, on_window=racing_write
    )
    record = kernel.run(system.power_on(3))
    assert record.succeeded
    assert fired and fired[0].processed  # the racing write committed
    # Both the pre-collection miss AND the in-window miss were marked
    # (B only via the delta pass).
    assert record.marked_items == 2
    kernel.run(until=kernel.now + 300)
    system.stop()
    kernel.run(until=kernel.now + 10)
    # And the recovered site converged on both items.
    assert system.copy_value(3, "A") == 1
    assert system.copy_value(3, "B") == 2
    assert kernel.run(
        system.submit_with_retry(3, read_program("B"), attempts=5)
    ) == 2
