"""End-to-end tests for the audit gate of ``repro run`` (the CI gate):
every run is audited, and a critical alert makes it exit 1."""

import json

from repro.cli import main
from repro.core.rowaa import RowaaStrategy


class TestAuditCli:
    def test_audit_e2_clean_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "run", "--experiment", "e2", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        alerts = (out / "alerts.jsonl").read_text()
        lines = [json.loads(line) for line in alerts.splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["label"] == "e2@seed=1"
        assert lines[0]["critical"] == 0
        assert all(doc["type"] == "alert" for doc in lines[1:])
        printed = capsys.readouterr().out
        assert "recovery timeline" in printed
        assert "audit: 0 alerts" in printed  # folded into the report

    def test_audit_gate_fails_on_critical(self, tmp_path, capsys, monkeypatch):
        # Inject the write-coverage fault protocol-wide: every user write
        # silently drops one fan-out leg. The gate must go red.
        original_write = RowaaStrategy.write

        def dropping_write(self, ctx, item, value):
            resident = ctx.tm.catalog.sites_of(item)
            targets = [
                (site, ctx.view[site])
                for site in resident
                if ctx.view.get(site, 0) != 0
            ]
            if len(targets) > 1:
                yield from ctx.dm_write_all(targets[:-1], item, value)
            else:
                yield from original_write(self, ctx, item, value)

        monkeypatch.setattr(RowaaStrategy, "write", dropping_write)
        out = tmp_path / "run"
        code = main([
            "run", "--experiment", "e2", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "VIOLATION" in captured.err
        alerts = (out / "alerts.jsonl").read_text()
        lines = [json.loads(line) for line in alerts.splitlines()]
        assert lines[0]["critical"] >= 1
        rules = {doc["rule"] for doc in lines[1:]}
        assert "rowaa.write_coverage" in rules
