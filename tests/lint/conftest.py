"""Shared fixtures for the replint test suite.

Rule tests work on synthetic files written into a temporary tree that
mirrors the real layout (``<tmp>/repro/core/x.py``), with the tmp dir
as the lint root — so scope matching behaves exactly as it does over
``src/``.
"""

import pathlib
import textwrap

import pytest

from repro.lint.engine import FileResult, LintEngine
from repro.lint.rules import RULES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def lint(tmp_path):
    """``lint(relpath, source, rules=['REP001'])`` -> FileResult.

    Writes ``source`` (dedented) at ``tmp_path/relpath`` and lints it
    with the named rules (default: all).
    """

    def run(relpath: str, source: str, rules=None) -> FileResult:
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        instances = RULES
        if rules is not None:
            by_id = {rule.id: rule for rule in RULES}
            instances = [by_id[rule_id] for rule_id in rules]
        engine = LintEngine(tmp_path, rules=instances)
        return engine.lint_file(path)

    return run


@pytest.fixture
def lint_tree(tmp_path):
    """Engine factory rooted at this test's tmp dir (for multi-file runs)."""

    def write(relpath: str, source: str) -> pathlib.Path:
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    return tmp_path, write
