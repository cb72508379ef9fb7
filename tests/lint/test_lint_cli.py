"""The ``repro lint`` subcommand: exit codes and the --json schema.

Exit-code contract (shared with trace/metrics/audit): 0 clean, 1 on
error findings, 2 on usage errors.
"""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import cli as lint_cli
from repro.lint.registry import rule_ids

BAD_SOURCE = """\
import random

def jitter():
    return random.random()
"""

CLEAN_SOURCE = """\
def double(n: int) -> int:
    return 2 * n
"""


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """A throwaway lint root with one target file."""
    monkeypatch.setattr(lint_cli, "_DEFAULT_ROOT", tmp_path)
    target = tmp_path / "repro" / "core" / "x.py"
    target.parent.mkdir(parents=True)

    def run(source, *extra):
        target.write_text(textwrap.dedent(source))
        return main(["lint", "--path", str(target), *extra])

    return run


class TestExitCodes:
    def test_clean_run_exits_zero(self, sandbox):
        assert sandbox(CLEAN_SOURCE) == 0

    def test_new_error_finding_exits_one(self, sandbox):
        assert sandbox(BAD_SOURCE) == 1

    def test_unknown_rule_exits_two(self, sandbox, capsys):
        assert sandbox(CLEAN_SOURCE, "--rules", "REP999") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unknown_suppression_id_exits_two(self, sandbox, capsys):
        assert sandbox("a = 1  # replint: disable=NOPE1\n") == 2
        assert "NOPE1" in capsys.readouterr().err
        # A deleted rule's id is as unknown as a typo.
        assert sandbox("a = 1  # replint: disable=REP002\n") == 2
        assert "REP002" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code = main(["lint", "--path", str(tmp_path / "nope.py")])
        assert code == 2

    def test_path_outside_root_exits_two(self, tmp_path, capsys):
        # Without the monkeypatched root, tmp files are outside src/.
        stray = tmp_path / "stray.py"
        stray.write_text("x = 1\n")
        assert main(["lint", "--path", str(stray)]) == 2
        assert "outside the lint root" in capsys.readouterr().err

    def test_rule_filter_limits_what_fires(self, sandbox):
        # REP005 alone does not see the REP001 violation.
        assert sandbox(BAD_SOURCE, "--rules", "REP005") == 0


class TestJsonReport:
    def test_schema_and_counts(self, sandbox, capsys):
        assert sandbox(BAD_SOURCE, "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert set(payload["rules"]) == set(rule_ids())
        assert payload["counts"]["files"] == 1
        assert payload["counts"]["errors"] == 1
        assert set(payload["counts"]) == {"files", "errors", "suppressed"}
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP001"
        assert finding["path"] == "repro/core/x.py"
        assert finding["line"] == 4
        assert {"col", "message", "snippet"} <= set(finding)

    def test_out_writes_report_file(self, sandbox, tmp_path):
        report = tmp_path / "lint.json"
        assert sandbox(BAD_SOURCE, "--json", "--out", str(report)) == 1
        payload = json.loads(report.read_text())
        assert payload["counts"]["errors"] == 1
