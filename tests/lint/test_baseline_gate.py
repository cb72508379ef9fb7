"""The gate: ``src/`` stays replint-clean.

Linting the real package tree with every rule produces **zero** error
findings — the same gate CI applies via ``repro lint``. Nothing is
grandfathered: a finding is fixed or suppressed in line (``# replint:
disable=RULE``), or it fails here.
"""

import pathlib

from repro.lint.engine import LintEngine

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_source_tree_is_replint_clean():
    engine = LintEngine(SRC_ROOT)
    findings, _stats = engine.lint([SRC_ROOT / "repro"])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)
