"""The ``repro lint`` subcommand.

Usage (mirrors the trace/metrics/audit exit-code contract)::

    python -m repro lint                      # lint src/repro, human report
    python -m repro lint --json [--out f.json]
    python -m repro lint --path src/repro/core --rules REP001,REP003
    python -m repro lint --changed            # only files differing from HEAD
    python -m repro lint --changed=origin/main

Exit status: 0 clean, 1 on any unsuppressed finding, 2 on a usage
error (unknown rule id — including inside a suppression directive — bad
path, git failure under ``--changed``). A finding is fixed or
suppressed in line (``# replint: disable=RULE``), or it fails.

``--changed [REF]`` intersects the lint targets with the files that
differ from the git ref (default ``HEAD``), plus untracked files — the
fast pre-commit loop. The exit-code contract and the ``--json`` schema
are unchanged; an empty intersection lints nothing and exits 0.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

from repro.lint.engine import LintEngine, LintUsageError
from repro.lint.registry import get_rule, rule_ids
from repro.lint.report import render_human, render_json

#: Default lint root and target: the package sources.
_DEFAULT_ROOT = pathlib.Path(__file__).resolve().parents[2]  # .../src


class ChangedFilesError(Exception):
    """git could not produce the changed-file list (usage error)."""


def changed_files(
    ref: str, cwd: pathlib.Path | None = None
) -> list[pathlib.Path]:
    """Absolute paths of files differing from ``ref``, plus untracked.

    Raises :exc:`ChangedFilesError` when ``cwd`` is not inside a git
    work tree or the ref does not resolve.
    """
    def _git(*argv: str) -> str:
        try:
            proc = subprocess.run(
                ["git", *argv], cwd=cwd, capture_output=True, text=True,
            )
        except OSError as exc:
            raise ChangedFilesError(f"cannot run git: {exc}") from exc
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            raise ChangedFilesError(
                f"git {' '.join(argv)} failed: "
                f"{detail[0] if detail else proc.returncode}"
            )
        return proc.stdout
    top = pathlib.Path(_git("rev-parse", "--show-toplevel").strip())
    names = _git("diff", "--name-only", ref).splitlines()
    names += _git("ls-files", "--others", "--exclude-standard").splitlines()
    return sorted({top / name for name in names if name})


def restrict_to_changed(
    paths: list[pathlib.Path], changed: list[pathlib.Path]
) -> list[pathlib.Path]:
    """The changed ``.py`` files that fall under one of ``paths``."""
    roots = [p.resolve() for p in paths]
    selected = []
    for candidate in changed:
        if candidate.suffix != ".py" or not candidate.is_file():
            continue
        resolved = candidate.resolve()
        if any(resolved == root or root in resolved.parents for root in roots):
            selected.append(candidate)
    return selected


def run_lint(args: argparse.Namespace) -> int:
    """Entry point called from :func:`repro.cli.main`."""
    root = _DEFAULT_ROOT
    if args.path:
        paths = [pathlib.Path(p) for p in args.path]
    else:
        paths = [root / "repro"]

    if getattr(args, "changed", None) is not None:
        try:
            changed = changed_files(args.changed)
        except ChangedFilesError as exc:
            print(f"lint: --changed: {exc}", file=sys.stderr)
            return 2
        # Lint the (possibly empty) intersection: the report/stats shape
        # and the exit-code contract stay exactly as without --changed.
        paths = restrict_to_changed(paths, changed)

    try:
        rules = None
        if args.rules:
            wanted = [part.strip() for part in args.rules.split(",") if part.strip()]
            rules = [get_rule(rule_id) for rule_id in wanted]
    except KeyError as exc:
        print(
            f"lint: unknown rule {exc.args[0]!r}; known: {', '.join(rule_ids())}",
            file=sys.stderr,
        )
        return 2

    engine = LintEngine(root, rules=rules)
    try:
        findings, stats = engine.lint(paths)
    except (LintUsageError, SyntaxError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    unknown = stats["unknown_suppressions"]
    if unknown:
        for problem in unknown:  # type: ignore[union-attr]
            print(f"lint: {problem}", file=sys.stderr)
        return 2

    report = (render_json if args.json else render_human)(findings, stats)
    if args.out:
        pathlib.Path(args.out).write_text(report + "\n", encoding="utf-8")
        print(f"lint: wrote report to {args.out}")
    else:
        print(report)

    if findings:
        print(f"lint: {len(findings)} error finding(s)  << VIOLATION", file=sys.stderr)
        return 1
    return 0
