"""The gate: ``src/`` stays replint-clean.

Linting the real package tree with every rule produces **zero** error
findings and no directive naming an unknown rule. This test is
replint's only runner: tier-1 and CI both apply it. Nothing is
grandfathered: a finding is fixed or suppressed in line (``# replint:
disable=RULE``), or it fails here.
"""

import pathlib

from repro.lint.engine import LintEngine

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_source_tree_is_replint_clean():
    engine = LintEngine(SRC_ROOT)
    findings, stats = engine.lint([SRC_ROOT / "repro"])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)
    # A directive naming no rule (a typo, a deleted rule) disables nothing.
    assert stats["unknown_suppressions"] == []
