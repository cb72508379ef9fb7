"""The rule base class.

A rule is a class with a unique ``id`` (``REPnnn``), a one-line
``title`` (pinned to the docs catalog by a drift test), a path
``scope`` restricting where it applies, and a ``check`` method that
yields findings for one file. :data:`repro.lint.rules.RULES` holds one
instance of each.
"""

from __future__ import annotations

import typing

from repro.lint.context import FileContext
from repro.lint.findings import Finding


class Rule:
    """Base class for replint rules."""

    #: Unique rule identifier, e.g. ``"REP001"``.
    id: str = ""
    #: One-line summary shown in the docs catalog.
    title: str = ""
    #: Root-relative path prefixes the rule applies to. ``()`` = everywhere.
    scope: tuple[str, ...] = ()
    #: Root-relative paths exempted from the rule (trusted implementations,
    #: e.g. the RngRegistry itself for REP001).
    exclude: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule should run on ``ctx``'s file at all."""
        if self.exclude and ctx.in_scope(self.exclude):
            return False
        if not self.scope:
            return True
        return ctx.in_scope(self.scope)

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        """Yield findings for one file. Subclasses must override."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing

    def finding(
        self, ctx: FileContext, node: object, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` (any AST node)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            path=ctx.rel,
            line=line,
            col=col + 1,  # 1-based columns, like every other linter
            message=message,
        )
