"""Unit tests for failure schedules."""

import random

import pytest

from repro.workload import FailureEvent, FailureSchedule


class TestConstructors:
    def test_events_sorted(self):
        schedule = FailureSchedule(
            [FailureEvent(9, "crash", 1), FailureEvent(3, "crash", 2)]
        )
        assert [event.time for event in schedule] == [3, 9]


class TestRandomFailures:
    def test_never_below_min_up(self):
        rng = random.Random(17)
        schedule = FailureSchedule.random_failures(
            [1, 2, 3], rng, horizon=10_000, mtbf=500, mttr=100, min_up_sites=1
        )
        up = {1: True, 2: True, 3: True}
        for event in schedule:
            if event.action == "crash":
                up[event.site_id] = False
            else:
                up[event.site_id] = True
            assert sum(up.values()) >= 1

    def test_alternating_per_site(self):
        rng = random.Random(23)
        schedule = FailureSchedule.random_failures(
            [1, 2], rng, horizon=20_000, mtbf=300, mttr=50
        )
        state = {1: "up", 2: "up"}
        for event in schedule:
            if event.action == "crash":
                assert state[event.site_id] == "up"
                state[event.site_id] = "down"
            else:
                assert state[event.site_id] == "down"
                state[event.site_id] = "up"

    def test_deterministic(self):
        def build(seed):
            return [
                (event.time, event.action, event.site_id)
                for event in FailureSchedule.random_failures(
                    [1, 2, 3], random.Random(seed), 5000, 400, 80
                )
            ]

        assert build(5) == build(5)
        assert build(5) != build(6)

    @pytest.mark.parametrize("seed", [5, 17, 23758])
    def test_every_crash_is_eventually_repaired(self, seed):
        """Repairs are emitted even past the horizon: a site that fails
        and recovers is the paper's model, and dropping an owed repair
        reads as permanent site loss (and wedges any in-doubt 2PC
        participant whose coordinator it was)."""
        schedule = FailureSchedule.random_failures(
            [1, 2, 3], random.Random(seed), horizon=2000, mtbf=400, mttr=80
        )
        crashes = sum(1 for e in schedule if e.action == "crash")
        repairs = sum(1 for e in schedule if e.action == "power_on")
        assert crashes > 0
        assert repairs == crashes
        # No NEW outages start past the horizon, but owed repairs may land there.
        assert all(e.time < 2000 for e in schedule if e.action == "crash")
