"""Doc-drift gate: docs/STATIC_ANALYSIS.md's rule catalog is exhaustive.

Parses the catalog table and compares (id, title) rows
against ``repro.lint.rules.RULES``. Adding a rule without cataloguing it —
or letting a documented row rot after a rule change — fails here.
Same idiom as tests/obs/test_doc_drift.py for the metric catalog.
"""

import pathlib
import re

from repro.lint.rules import RULES

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "STATIC_ANALYSIS.md"

_ROW = re.compile(r"^\|\s*`(REP\d{3})`\s*\|\s*(.+?)\s*\|\s*$")


def _catalog_rows():
    text = DOC.read_text()
    start = text.index("## Rule catalog")
    end = text.index("\n## ", start + 1)
    rows = {}
    for line in text[start:end].splitlines():
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


def test_catalog_matches_registry():
    rows = _catalog_rows()
    live = {rule.id: rule.title for rule in RULES}
    assert rows == live


def test_rule_ids_are_unique():
    # Two instances under one id would run twice and be catalogued once.
    ids = [rule.id for rule in RULES]
    assert len(ids) == len(set(ids)), ids


def test_every_rule_has_a_detail_section():
    text = DOC.read_text()
    for rule in RULES:
        assert f"### {rule.id} " in text, f"no detail section for {rule.id}"
