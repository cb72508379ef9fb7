"""End-to-end tests for ``repro trace`` / ``repro metrics`` (acceptance).

The E2 trace acceptance criterion lives here: the exported Chrome
trace-event file must contain a user transaction with remote RPC
children, a type-1 control transaction, and a copier refresh.
"""

import json

import pytest

from repro.cli import SUBCOMMANDS, main
from repro.harness.runner import run_traced, scenario_names


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


class TestTraceCli:
    def test_e2_trace_acceptance(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "stream.jsonl"
        code = main([
            "trace", "--experiment", "e2", "--seed", "1",
            "--out", str(out), "--jsonl", str(jsonl),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
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

        # JSONL sidecar was written and the CLI printed the timeline.
        assert jsonl.exists()
        printed = capsys.readouterr().out
        assert "recovery timeline" in printed
        assert "drain site" in printed

    def test_metrics_subcommand(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main([
            "metrics", "--experiment", "e2", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        snapshot = doc["snapshot"]
        assert snapshot["global"]["recovery.runs"] == 1.0
        assert snapshot["global"]["copier.refreshes"] >= 1.0
        printed = capsys.readouterr().out
        assert "txn.committed" in printed
        assert "recovery timeline" in printed

    def test_experiment_id_is_case_insensitive(self, tmp_path, capsys):
        # `repro E7` always ran; `--experiment E2` used to exit 2.
        out = tmp_path / "trace.json"
        assert main(["trace", "--experiment", "E2", "--seed", "1",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]
        assert "unknown experiment" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand",
        # Every subcommand that takes --experiment: all but these three.
        [name for name in SUBCOMMANDS if name not in ("list", "all", "lint")],
    )
    def test_unknown_experiment_fails_cleanly(
        self, subcommand, tmp_path, capsys
    ):
        code = main([subcommand, "--experiment", "e0", "--out",
                     str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert "unknown experiment 'e0'" in captured.err
        assert captured.err.startswith(subcommand + ":")
        assert not (tmp_path / "out").exists()


class TestProfileCli:
    def test_e2_profile_acceptance(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        folded = tmp_path / "folded.txt"
        speedscope = tmp_path / "speedscope.json"
        code = main([
            "profile", "--experiment", "e2", "--seed", "1",
            "--out", str(out), "--folded", str(folded),
            "--speedscope", str(speedscope),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "host-CPU profile" in printed
        assert "recovery timeline" in printed
        # The table leads the output and is not printed a second time
        # by the embedded timeline report.
        assert printed.count("host-CPU profile") == 1

        doc = json.loads(out.read_text())
        host = doc["host"]
        # The acceptance invariant: per-subsystem exclusive CPU tiles
        # the dispatch loop's wall time exactly (run-length batching
        # charges every interval to exactly one run).
        parts = sum(e["cpu_s"] for e in host["subsystems"].values())
        assert parts == pytest.approx(host["dispatch_wall_s"], rel=0.01)
        assert parts == pytest.approx(host["total_cpu_s"])
        shares = sum(e["share"] for e in host["subsystems"].values())
        assert shares == pytest.approx(1.0, rel=0.01)
        assert host["total_events"] > 0
        assert doc["sim_folded"], "sim-time folded stacks must exist"

        # Valid speedscope sampled-profile document.
        scope = json.loads(speedscope.read_text())
        assert scope["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        profile = scope["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"]) > 0
        n_frames = len(scope["shared"]["frames"])
        assert all(
            0 <= idx < n_frames
            for sample in profile["samples"] for idx in sample
        )
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))

        # Folded flamegraph lines: "a;b;c <value>".
        lines = folded.read_text().splitlines()
        assert lines and all(" " in line for line in lines)

    def test_profile_sample_mode(self, capsys):
        code = main([
            "profile", "--experiment", "e7", "--seed", "2", "--sample",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "host " in printed  # top host stacks were printed


class TestLatencyCli:
    def test_latency_subcommand_budget_and_series(self, tmp_path, capsys):
        out = tmp_path / "budget.json"
        series = tmp_path / "series.jsonl"
        code = main([
            "latency", "--experiment", "e3", "--seed", "1",
            "--sample-period", "10", "--out", str(out),
            "--series", str(series),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "latency budget" in printed
        assert "throughput baseline" in printed

        doc = json.loads(out.read_text())
        assert doc["experiment"] == "e3"
        assert doc["sample_period"] == 10.0
        budget = doc["budgets"]["e3"]
        assert budget["txns"] > 0
        # The invariant the whole decomposition is built around: the
        # categories (unattributed included) sum to the total exactly.
        parts = sum(c["total"] for c in budget["categories"].values())
        assert parts == pytest.approx(budget["total"])
        assert budget["gap_fraction"] < 0.05
        assert budget["gap_ok"]

        lines = [
            json.loads(x) for x in series.read_text().splitlines()
        ]
        assert lines[0]["type"] == "meta"
        names = {x["name"] for x in lines if x["type"] == "series"}
        assert "ts.committed" in names
        assert "ts.site_up" in names
