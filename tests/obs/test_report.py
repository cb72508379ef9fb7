"""Recovery-timeline reporter tests, anchored to the E2 scenario."""

import pytest

from repro.harness.runner import run_traced
from repro.obs.report import recovery_timeline, render_recovery_timeline


@pytest.fixture(scope="module")
def e2_run():
    run = run_traced("e2", seed=1)
    return run.system, run.summary, recovery_timeline(run.system)


class TestRecoveryTimeline:
    def test_victim_entry_matches_e2_aggregates(self, e2_run):
        system, summary, report = e2_run
        victim = max(system.cluster.site_ids)
        entry = report["sites"][victim]
        assert entry["crashes"] == 1
        assert entry["recoveries"] == 1
        # The reporter's numbers are the same quantities E2 tabulates.
        assert entry["time_to_nominally_up"] == pytest.approx(
            summary["t_operational"]
        )
        assert entry["time_to_fully_current"] == pytest.approx(
            summary["t_caught_up"]
        )
        assert entry["mttr"] is not None
        # MTTR spans crash -> operational, so it dominates power-on -> up.
        assert entry["mttr"] >= entry["time_to_nominally_up"]

    def test_non_crashed_sites_have_no_recovery_figures(self, e2_run):
        system, _summary, report = e2_run
        victim = max(system.cluster.site_ids)
        for site_id, entry in report["sites"].items():
            if site_id == victim:
                continue
            assert entry["crashes"] == 0
            assert entry["mttr"] is None
            assert entry["time_to_nominally_up"] is None
            assert "time_to_fully_current" not in entry

    def test_drain_curve_ends_at_zero(self, e2_run):
        system, _summary, report = e2_run
        victim = max(system.cluster.site_ids)
        curve = report["sites"][victim]["drain_curve"]
        assert curve, "victim must have a missing-list drain curve"
        assert curve[-1][1] == 0.0
        # The curve starts with work outstanding (6 missed writes over 8
        # items leave some copies unreadable).
        assert max(value for _t, value in curve) > 0

    def test_global_aggregates(self, e2_run):
        _system, _summary, report = e2_run
        overall = report["global"]
        assert overall["recoveries"] == 1
        assert overall["mean_mttr"] is not None
        assert overall["session_mismatch_rejections"] >= 0

    def test_render_is_stable_text(self, e2_run):
        _system, _summary, report = e2_run
        text = render_recovery_timeline(report)
        assert "recovery timeline" in text
        assert "drain site" in text
        assert "mean_mttr" in text


def test_report_leaves_the_registry_as_it_found_it():
    """Sites 1 and 2 never recover, so they have no downtime histogram;
    building the report used to create empty ones, which then showed up
    in any metrics snapshot taken after it."""
    run = run_traced("e2", seed=1)
    registry = run.obs.registry
    before = registry.snapshot()
    recovery_timeline(run.system)
    assert registry.snapshot() == before
    assert set(before["histograms"]["recovery.downtime"]) == {"site_3", "all"}
