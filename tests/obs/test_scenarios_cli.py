"""End-to-end tests for ``repro run`` and its run directory (acceptance).

The E2 trace acceptance criterion lives here: the exported Chrome
trace-event file must contain a user transaction with remote RPC
children, a type-1 control transaction, and a copier refresh. So does
the promise that lets ``repro run`` attach every observer at once: the
composed run's spans, alerts and latency budget are those of a run with
only the one observer that produces them.
"""

import json

import pytest

from repro.cli import RUN_FILES, SUBCOMMANDS, main
from repro.harness.runner import run_traced, scenario_names
from repro.obs.critpath import latency_budget
from repro.obs.export import export_jsonl
from repro.obs.timeseries import DEFAULT_PERIOD, outage_stats

#: The one-artifact subcommands ``repro run`` replaced, and ``lint``,
#: whose one runner is now the tier-1 test tests/lint/test_baseline_gate.py.
RETIRED = ("trace", "metrics", "audit", "latency", "profile", "lint")


def _run(tmp_path, experiment):
    """``repro run`` at seed 1 into ``tmp_path/run``: (exit code, directory)."""
    out = tmp_path / "run"
    code = main(["run", "--experiment", experiment, "--seed", "1", "--out", str(out)])
    return code, out


class TestScenarios:
    def test_all_experiments_have_scenarios(self):
        assert scenario_names() == (
            [f"e{n}" for n in range(1, 10)] + ["e10sync", "e10", "e11sync", "e11"]
        )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_traced("e99")

    def test_run_traced_returns_live_bundle(self):
        run = run_traced("e7", seed=2)
        assert run.experiment == "e7"
        assert run.obs is run.system.obs
        assert run.obs.spans.spans, "spans must be recorded"
        assert run.summary["status_txns"] >= 2  # exclude + include


class TestRunDirectory:
    def test_writes_exactly_the_run_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--experiment", "e2", "--seed", "1"]) == 0
        run_dir = tmp_path / "run_e2_1"
        assert sorted(path.name for path in run_dir.iterdir()) == sorted(RUN_FILES)
        # stdout is the report, and nothing host-timed is in it.
        printed = capsys.readouterr().out
        assert printed == (run_dir / "report.txt").read_text()
        assert "host-CPU" not in printed and "cpu_s" not in printed

    @pytest.mark.parametrize("experiment", ["e2", "e10"])
    def test_composed_run_equals_single_observer_runs(self, experiment, tmp_path):
        code, out = _run(tmp_path, experiment)
        assert code == 0

        def spans_and_instants(path):
            return [line for line in path.read_text().splitlines()
                    if json.loads(line)["type"] in ("span", "instant")]

        plain = tmp_path / "plain.jsonl"
        export_jsonl(run_traced(experiment, seed=1).obs, str(plain))
        assert spans_and_instants(out / "run.jsonl") == spans_and_instants(plain)

        audited = run_traced(experiment, seed=1, audit=True)
        alerts = tmp_path / "alerts.jsonl"
        audited.obs.audit.alerts.export_jsonl(str(alerts), label=audited.label)
        assert (out / "alerts.jsonl").read_text() == alerts.read_text()

        sampled = run_traced(experiment, seed=1, sample=True)
        latency = json.loads((out / "latency.json").read_text())
        assert latency["latency"] == json.loads(json.dumps(latency_budget(sampled.obs)))
        assert latency["throughput"] == json.loads(
            json.dumps(outage_stats(sampled.obs.sampler)))


class TestTraceCli:
    """``trace.json`` and ``run.jsonl``, the run's event streams."""

    def test_e2_trace_acceptance(self, tmp_path, capsys):
        code, out = _run(tmp_path, "e2")
        assert code == 0
        doc = json.loads((out / "trace.json").read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        cats = {e["cat"] for e in spans}
        # The three protocol actors the acceptance criterion names:
        assert "user" in cats
        assert "control" in cats  # the recovery's type-1 transaction
        assert "copier_refresh" in cats

        # A user txn with RPC children on a *remote* site.
        user_ids = {
            e["args"]["span_id"] for e in spans if e["cat"] == "user"
        }
        assert any(
            e["cat"] == "serve" and e["tid"] in user_ids
            for e in spans
        ), "remote serve spans must share a user root's lane"
        # The sampler's windows ride along as counter tracks.
        assert any(e["ph"] == "C" for e in doc["traceEvents"])

        printed = capsys.readouterr().out
        assert "recovery timeline" in printed
        assert "drain site" in printed

    def test_run_jsonl_carries_metrics_snapshot(self, tmp_path):
        code, out = _run(tmp_path, "e2")
        assert code == 0
        lines = [json.loads(x) for x in (out / "run.jsonl").read_text().splitlines()]
        assert lines[0]["type"] == "meta" and lines[0]["label"] == "e2@seed=1"
        assert lines[-1]["type"] == "metrics"
        snapshot = lines[-1]["snapshot"]
        assert snapshot["global"]["recovery.runs"] == 1.0
        assert snapshot["global"]["copier.refreshes"] >= 1.0
        series = {x["name"] for x in lines if x["type"] == "series"}
        assert {"ts.committed", "ts.site_up"} <= series

    def test_experiment_id_is_case_insensitive(self, tmp_path, capsys):
        # `repro E7` always ran; `--experiment E2` used to exit 2.
        code, out = _run(tmp_path, "E2")
        assert code == 0
        assert json.loads((out / "trace.json").read_text())["traceEvents"]
        assert "unknown experiment" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand",
        # Every subcommand that takes --experiment, then the retired
        # ones: each is now an unknown experiment name.
        [name for name in SUBCOMMANDS if name not in ("list", "all")]
        + list(RETIRED),
    )
    def test_unknown_experiment_fails_cleanly(
        self, subcommand, tmp_path, capsys
    ):
        code = main([subcommand, "--experiment", "e0", "--out",
                     str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        if subcommand in RETIRED:
            assert f"unknown experiment {subcommand!r}" in captured.err
        else:
            assert "unknown experiment 'e0'" in captured.err
            assert captured.err.startswith(subcommand + ":")
        assert not (tmp_path / "out").exists()


class TestProfileCli:
    """``profile.json`` (host CPU) and ``sim.folded.txt`` (sim time)."""

    def test_e2_profile_acceptance(self, tmp_path):
        code, out = _run(tmp_path, "e2")
        assert code == 0
        host = json.loads((out / "profile.json").read_text())
        # The acceptance invariant: the per-subsystem exclusive CPU rows
        # add up to the total, and each names the function it spent most in.
        parts = sum(e["cpu_s"] for e in host["subsystems"].values())
        assert parts == pytest.approx(host["total_cpu_s"])
        assert all(e["top"] for e in host["subsystems"].values())
        assert {"kernel", "net", "locks", "wal"} <= set(host["subsystems"])
        shares = sum(e["share"] for e in host["subsystems"].values())
        assert shares == pytest.approx(1.0, rel=0.01)
        assert host["total_events"] > 0

        # Folded flamegraph lines: "a;b;c <value>".
        lines = (out / "sim.folded.txt").read_text().splitlines()
        assert lines and all(" " in line for line in lines)


class TestLatencyCli:
    """``latency.json``: the critical-path budget and the troughs."""

    def test_latency_json_budget_and_troughs(self, tmp_path, capsys):
        code, out = _run(tmp_path, "e3")
        assert code == 0
        printed = capsys.readouterr().out
        assert "latency budget" in printed
        assert "throughput baseline" in printed

        doc = json.loads((out / "latency.json").read_text())
        assert doc["label"] == "e3@seed=1"
        assert doc["throughput"]["period"] == DEFAULT_PERIOD
        budget = doc["latency"]
        assert budget["txns"] > 0
        # The invariant the whole decomposition is built around: the
        # categories (unattributed included) sum to the total exactly.
        parts = sum(c["total"] for c in budget["categories"].values())
        assert parts == pytest.approx(budget["total"])
        assert budget["gap_fraction"] < 0.05
        assert budget["gap_ok"]
