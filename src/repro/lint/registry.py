"""Rule base class and the global rule registry.

A rule is a class with a unique ``id`` (``REPnnn``), a one-line
``title`` (pinned to the docs catalog by a drift test), a path
``scope`` restricting where it applies, and a ``check`` method that
yields findings for one file. Registration happens at import time via
the :func:`register` decorator; :mod:`repro.lint.rules` imports every
rule module for its side effect.
"""

from __future__ import annotations

import re
import typing

from repro.lint.context import FileContext
from repro.lint.findings import Finding

_RULE_ID = re.compile(r"^REP\d{3}$")


class Rule:
    """Base class for replint rules."""

    #: Unique rule identifier, e.g. ``"REP001"``.
    id: str = ""
    #: One-line summary shown in reports and the docs catalog.
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
            snippet=ctx.line_text(line).strip(),
        )


_REGISTRY: dict[str, Rule] = {}

_RuleT = typing.TypeVar("_RuleT", bound=type)


def register(cls: _RuleT) -> _RuleT:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()  # type: ignore[operator]
    if not _RULE_ID.match(rule.id):
        raise ValueError(f"invalid rule id {rule.id!r} on {cls.__name__}")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    if not rule.title:
        raise ValueError(f"rule {rule.id} has no title")
    _REGISTRY[rule.id] = rule
    return cls


def _ensure_loaded() -> None:
    # Imported lazily to avoid a registry<->rules import cycle.
    import repro.lint.rules  # noqa: F401


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    """Sorted registered rule ids."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    """Look up one rule; raises KeyError for unknown ids."""
    _ensure_loaded()
    return _REGISTRY[rule_id]
