"""E1–E9 under the auditor: the unmodified protocol raises no alerts.

This is the no-false-positives half of the auditor's acceptance
criteria (the no-false-negatives half is ``test_fault_injection.py``);
CI runs the same sweep through ``repro run`` as the audit gate.
"""

import pytest

from repro.harness.runner import run_traced, scenario_names


@pytest.mark.parametrize("experiment", scenario_names())
def test_experiment_runs_clean_under_auditor(experiment):
    run = run_traced(experiment, seed=1, audit=True)
    auditor = run.obs.audit
    assert auditor is not None
    summary = auditor.summary()
    assert summary["critical"] == 0, auditor.alerts.render_summary()
    # The current scenarios are stall-free too: watchdogs stay quiet.
    assert summary["warning"] == 0, auditor.alerts.render_summary()
    # The auditor actually watched: checks ran and the graph grew.
    assert summary["checks"] > 0
    assert summary["graph"]["nodes"] >= 1
    assert not auditor.stg.cycle_found
