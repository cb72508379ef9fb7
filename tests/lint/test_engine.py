"""The engine's own checks: directives naming no rule, bad paths."""

import pytest

from repro.lint.engine import LintEngine, LintUsageError


class TestUnknownSuppressionIds:
    def test_unknown_suppression_id_is_reported(self, lint):
        result = lint("repro/core/x.py", "a = 1  # replint: disable=NOPE1\n")
        assert result.unknown_suppressions == ["NOPE1"]
        # A deleted rule's id is as unknown as a typo.
        result = lint("repro/core/x.py", "a = 1  # replint: disable=REP002\n")
        assert result.unknown_suppressions == ["REP002"]

    def test_tree_stats_name_the_file(self, lint_tree):
        root, write = lint_tree
        write("repro/core/x.py", "a = 1  # replint: disable-file=NOPE1\n")
        findings, stats = LintEngine(root).lint([root / "repro"])
        assert findings == []
        assert stats["unknown_suppressions"] == [
            "repro/core/x.py: unknown rule NOPE1 in replint directive"
        ]


class TestUsageErrors:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintUsageError, match="no such path"):
            LintEngine(tmp_path).lint([tmp_path / "nope.py"])

    def test_path_outside_root_raises(self, lint_tree, tmp_path_factory):
        root, _write = lint_tree
        stray = tmp_path_factory.mktemp("elsewhere") / "stray.py"
        stray.write_text("x = 1\n")
        with pytest.raises(LintUsageError, match="outside the lint root"):
            LintEngine(root).lint([stray])
