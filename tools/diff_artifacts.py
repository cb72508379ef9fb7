#!/usr/bin/env python3
"""Compare two captures of tools/capture_artifacts.sh.

    python tools/diff_artifacts.py A B [--ignore NAME]...

Prints every file that differs between directories A and B (or exists on
one side only) with its first differing line, after dropping what is not
seed-determined: lines reporting host wall time (``5.2s wall``) and the
value of every counter named with ``--ignore`` wherever it is written as
``NAME: 12``, ``"NAME": 12.0`` or ``NAME=12``. Exit 0 when nothing
differs, 1 otherwise.

A PR that removes kernel events compares with ``--ignore
kernel.events_processed``; the schedfuzz artifacts additionally need
``--ignore n_decisions --ignore decisions`` (a perturbed schedule draws
one decision per same-instant tie batch, so their number follows the
event count while fingerprints, alerts and exit codes must not move).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

_WALL_LINE = re.compile(r"\d+(\.\d+)?\s*m?s wall")


def _normalizer(ignored: list[str]):
    """text -> list of comparable lines, wall lines and ignored values gone."""
    values = [
        re.compile(rf'(?<![\w.])("?{re.escape(name)}"?\s*[:=]\s*)-?\d+(\.\d+)?')
        for name in ignored
    ]

    def normalize(text: str) -> list[str]:
        lines = []
        for line in text.splitlines():
            if _WALL_LINE.search(line):
                continue
            for pattern in values:
                line = pattern.sub(r"\1<ignored>", line)
            lines.append(line)
        return lines

    return normalize


def _files(root: pathlib.Path) -> dict[str, pathlib.Path]:
    return {
        str(path.relative_to(root)): path
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def diff(a: pathlib.Path, b: pathlib.Path, ignored: list[str]) -> list[str]:
    """One report line per differing file, in name order."""
    normalize = _normalizer(ignored)
    files_a, files_b = _files(a), _files(b)
    report = []
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            report.append(f"{name}: only in {a if name in files_a else b}")
            continue
        lines_a = normalize(files_a[name].read_text(errors="replace"))
        lines_b = normalize(files_b[name].read_text(errors="replace"))
        if lines_a == lines_b:
            continue
        for number, (left, right) in enumerate(zip(lines_a, lines_b), start=1):
            if left != right:
                report.append(
                    f"{name}: line {number} differs\n"
                    f"  A: {left[:200]}\n  B: {right[:200]}"
                )
                break
        else:
            report.append(f"{name}: {len(lines_a)} vs {len(lines_b)} lines")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    parser.add_argument("--ignore", action="append", default=[], metavar="NAME",
                        help="counter whose value may differ (repeatable)")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    report = diff(args.a, args.b, args.ignore)
    for line in report:
        print(line)
    print(f"{len(report)} differing file(s)")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
