"""Per-file analysis context shared by all rules.

One :class:`FileContext` is built per linted file: the parsed AST, the
source lines, and the root-relative POSIX path that rule scopes match
against.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib


@dataclasses.dataclass
class FileContext:
    """Everything a rule needs to analyse one file."""

    path: pathlib.Path
    rel: str  # POSIX path relative to the lint root, e.g. "repro/core/rowaa.py"
    source: str
    tree: ast.Module
    lines: list[str]

    @classmethod
    def build(cls, root: pathlib.Path, path: pathlib.Path) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        rel = path.relative_to(root).as_posix()
        return cls(
            path=path,
            rel=rel,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )

    # -- scope matching -----------------------------------------------------

    def in_scope(self, prefixes: tuple[str, ...]) -> bool:
        """True when this file lives under any of the given prefixes.

        A prefix is either a package directory ("repro/core") or an
        exact file ("repro/core/system.py"), relative to the lint root.
        """
        for prefix in prefixes:
            if self.rel == prefix or self.rel.startswith(prefix.rstrip("/") + "/"):
                return True
        return False
