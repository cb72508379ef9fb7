"""The replint analysis driver.

Walks the requested paths, parses each ``.py`` file once, runs every
in-scope rule over the shared :class:`~repro.lint.context.FileContext`,
then filters the raw findings through suppression comments.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import typing

from repro.lint import suppress
from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rule import Rule
from repro.lint.rules import RULES


class LintUsageError(ValueError):
    """Bad invocation: a missing path, a non-Python file, or a file
    outside the lint root."""


@dataclasses.dataclass
class FileResult:
    """Per-file outcome: kept findings plus suppression accounting."""

    rel: str
    findings: list[Finding]
    suppressed: int
    unknown_suppressions: list[str]


def iter_python_files(paths: typing.Sequence[pathlib.Path]) -> list[pathlib.Path]:
    """All ``.py`` files under ``paths`` (files or directories), sorted."""
    seen: dict[pathlib.Path, None] = {}
    for path in paths:
        if not path.exists():
            raise LintUsageError(f"no such path: {path}")
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                seen[child.resolve()] = None
        elif path.suffix == ".py":
            seen[path.resolve()] = None
        else:
            raise LintUsageError(f"not a python file: {path}")
    return list(seen)


def _header_end(tree: ast.Module) -> int:
    """Line of the first statement after the module docstring.

    File-level suppression directives are honoured up to here (or the
    fixed 20-line window if that is larger), so a waiver can sit right
    under an arbitrarily long module docstring.
    """
    body = tree.body
    start = 0
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        start = 1
    if len(body) > start:
        return body[start].lineno
    return 0


class LintEngine:
    """Run a rule set over files rooted at ``root``.

    ``root`` anchors the relative paths that rule scopes and reports
    use — for this repository it is ``src/`` (so paths read
    ``repro/core/rowaa.py``).
    """

    def __init__(
        self, root: pathlib.Path, rules: typing.Sequence[Rule] = RULES
    ) -> None:
        self.root = root.resolve()
        self.rules = rules

    def lint_file(self, path: pathlib.Path) -> FileResult:
        """Analyse one file: parse, run rules, apply suppressions."""
        try:
            ctx = FileContext.build(self.root, path.resolve())
        except ValueError as exc:
            raise LintUsageError(
                f"{path} is outside the lint root {self.root}"
            ) from exc
        raw: list[Finding] = []
        for rule in self.rules:
            if rule.applies_to(ctx):
                raw.extend(rule.check(ctx))
        directives = suppress.scan(ctx.lines, header_end=_header_end(ctx.tree))
        known = {rule.id for rule in RULES}
        unknown = sorted(directives.referenced - known)
        kept: list[Finding] = []
        suppressed = 0
        for finding in sorted(raw, key=lambda f: (f.line, f.col, f.rule)):
            if directives.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                kept.append(finding)
        return FileResult(
            rel=ctx.rel,
            findings=kept,
            suppressed=suppressed,
            unknown_suppressions=unknown,
        )

    def lint(
        self, paths: typing.Sequence[pathlib.Path]
    ) -> tuple[list[Finding], dict[str, object]]:
        """Analyse all files under ``paths``.

        Returns (findings, stats) where stats carries the file count,
        suppression count, and any unknown-rule suppression directives
        (a directive naming no rule suppresses nothing, so the gate
        fails on it as on a finding).
        """
        findings: list[Finding] = []
        suppressed = 0
        unknown: list[str] = []
        files = iter_python_files(paths)
        for path in files:
            result = self.lint_file(path)
            findings.extend(result.findings)
            suppressed += result.suppressed
            for rule_id in result.unknown_suppressions:
                unknown.append(f"{result.rel}: unknown rule {rule_id} in "
                               "replint directive")
        stats: dict[str, object] = {
            "files": len(files),
            "suppressed": suppressed,
            "unknown_suppressions": unknown,
        }
        return findings, stats
