"""Suppression directives: per-line, file-level, and typo safety."""

from repro.lint import suppress


class TestLineSuppression:
    def test_inline_disable_suppresses_that_line_only(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            import random

            a = random.random()  # replint: disable=REP001
            b = random.random()
            """,
            rules=["REP001"],
        )
        assert [f.line for f in result.findings] == [5]
        assert result.suppressed == 1

    def test_multiple_ids_in_one_directive(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            import random

            t = random.random() == 0.5  # replint: disable=REP001,REP005
            """,
            rules=["REP001", "REP005"],
        )
        assert result.findings == []
        assert result.suppressed == 2

    def test_directive_for_other_rule_does_not_suppress(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            import random

            a = random.random()  # replint: disable=REP005
            """,
            rules=["REP001"],
        )
        assert [f.rule for f in result.findings] == ["REP001"]


class TestFileSuppression:
    def test_header_disable_file_suppresses_whole_file(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            \"\"\"A sanctioned exception.\"\"\"
            # replint: disable-file=REP001

            import random

            a = random.random()
            b = random.random()
            """,
            rules=["REP001"],
        )
        assert result.findings == []
        assert result.suppressed == 2

    def test_directive_after_long_docstring_is_honoured(self, lint):
        filler = "\n".join(f"Line {i} of justification." for i in range(40))
        result = lint(
            "repro/core/x.py",
            f'"""Waiver rationale.\n\n{filler}\n"""\n'
            "# replint: disable-file=REP001\n"
            "import random\n"
            "a = random.random()\n",
            rules=["REP001"],
        )
        assert result.findings == []

    def test_directive_buried_in_body_is_ignored(self, lint):
        body = "\n".join(f"x{i} = {i}" for i in range(30))
        result = lint(
            "repro/core/x.py",
            "import random\n"
            f"{body}\n"
            "# replint: disable-file=REP001\n"
            "a = random.random()\n",
            rules=["REP001"],
        )
        assert [f.rule for f in result.findings] == ["REP001"]


class TestUnknownIds:
    def test_unknown_rule_in_directive_is_reported(self, lint):
        result = lint(
            "repro/core/x.py",
            "a = 1  # replint: disable=REP999\n",
            rules=["REP001"],
        )
        assert result.unknown_suppressions == ["REP999"]

    def test_known_ids_are_not_reported(self, lint):
        result = lint(
            "repro/core/x.py",
            "import random\na = random.random()  # replint: disable=REP001\n",
            rules=["REP001"],
        )
        assert result.unknown_suppressions == []


class TestScan:
    def test_scan_parses_line_and_file_directives(self):
        lines = [
            "# replint: disable-file=REP004",
            "x = 1  # replint: disable=REP001, REP003",
            "y = 2",
        ]
        directives = suppress.scan(lines)
        assert directives.file_wide == {"REP004"}
        assert directives.by_line == {2: frozenset({"REP001", "REP003"})}
        assert directives.referenced == {"REP001", "REP003", "REP004"}
        assert directives.is_suppressed("REP004", 3)
        assert directives.is_suppressed("REP001", 2)
        assert not directives.is_suppressed("REP001", 3)
