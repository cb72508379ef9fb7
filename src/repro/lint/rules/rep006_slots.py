"""REP006 (advisory) — missing ``__slots__`` on hot-path kernel classes.

The kernel's inner loop allocates futures, timeouts, and callbacks by
the hundred-thousand per run; PR 1's fast path slotted them and the
reference benchmark's ``sim.ns_per_event`` / ``sim.ns_per_switch``
micro-drivers (``BENCHMARK.json``) bank on it. A new class in the
hot-path modules without ``__slots__`` quietly reintroduces a
per-instance ``__dict__`` — correct, but a measurable throughput
regression the benchmark may take a while to localize.

Advisory severity: ``__slots__`` is a performance convention, not a
correctness invariant, so this never fails the gate by itself.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register
from repro.lint.rules._scopes import HOT_PATH_FILES


def _has_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


@register
class MissingSlotsRule(Rule):
    id = "REP006"
    title = "hot-path kernel class without __slots__ (advisory)"
    severity = Severity.ADVICE
    scope = HOT_PATH_FILES

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and not _has_slots(node):
                yield self.finding(
                    ctx,
                    node,
                    f"class {node.name} in a kernel hot-path module has no "
                    "__slots__; instances pay a __dict__ on the inner loop",
                )
