"""REP005 — float equality in protocol decisions.

Virtual time, latencies, and session timestamps are floats. An
``==``/``!=`` against a float computation is a protocol decision that
can flip on the last ulp of an unrelated refactor (operation reordering
changes rounding), turning a deterministic run into a
seed-dependent heisenbug. Flagged: equality comparisons where an
operand is a float literal, a true division, or a ``float(...)`` call.

Compare times with ``<``/``<=`` windows, compare counters as ints, or
use an explicit tolerance. Exact-propagation cases (a sentinel float
stored and compared unchanged) do exist — suppress those lines with a
justification comment.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rule import Rule

_DECISION_SCOPE = (
    "repro/sim",
    "repro/net",
    "repro/txn",
    "repro/wal",
    "repro/core",
    "repro/site",
    "repro/storage",
)


def _is_floatish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    return False


class FloatEqualityRule(Rule):
    id = "REP005"
    title = "float equality comparison in a protocol decision"
    scope = _DECISION_SCOPE

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_floatish(operand) for operand in operands):
                yield self.finding(
                    ctx,
                    node,
                    "float equality can flip on rounding; compare with a "
                    "tolerance, an ordering, or integer quantities",
                )
