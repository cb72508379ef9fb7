"""REP007 — protocol state mutated after a yield from a stale pre-yield read.

A protocol coroutine that reads shared site state (the actual session
number ``as[k]``, an unreadable mark), *yields* — suspending for an
arbitrary stretch of simulated time — and then mutates site state using
the value it read earlier is acting on a world that may no longer exist:
a recovery can install a new session, a copier can renovate the copy,
while the coroutine sleeps. The dynamic companion of this rule is the
schedsan coroutine-atomicity check (:mod:`repro.sanitize.hb`), which
catches the interleavings a given seed happens to execute; this rule
flags the *pattern* on every code path.

Statically: inside any generator function in the protocol layers, a
local variable whose **last** assignment reads session/unreadable state
(an attribute chain ending in ``.actual_session``, ``.sessions.current``,
or ``.unreadable``) is *stale-tainted*. Using a tainted variable in a
state-mutating position — as an argument to a known mutator
(``activate``, ``apply_write``, ``mark_unreadable``, ``clear_unreadable``,
``install``, ``log_session``) or on the right-hand side of a store to a
state attribute — after at least one intervening ``yield`` is flagged.
Re-reading the state after the yield (re-assigning the variable) is the
revalidation that clears the taint, and is the fix::

    session = site.sessions.current
    yield kernel.timeout(5)
    site.sessions.activate(session + 1, now)     # REP007: stale read

    yield kernel.timeout(5)
    session = site.sessions.current              # revalidated: clean
    site.sessions.activate(session + 1, now)

The analysis is a linear source-order approximation (branches are
visited in order, loops once): cheap, deterministic, and biased toward
silence — a value smuggled through a container or an attribute escapes
it, which the dynamic check backstops.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rule import Rule
from repro.lint.rules._scopes import PROTOCOL

#: Call names that commit a value into shared protocol state.
MUTATORS = frozenset({
    "activate", "apply_write", "mark_unreadable", "clear_unreadable",
    "install", "log_session",
})

#: Attribute stores that ARE shared protocol state.
STATE_STORE_ATTRS = frozenset({"actual_session", "unreadable"})


def _is_state_read(node: ast.expr) -> bool:
    """Attribute chain reading session/unreadable state."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute):
            continue
        if sub.attr in ("actual_session", "unreadable"):
            return True
        if sub.attr == "current" and isinstance(sub.value, ast.Attribute) \
                and sub.value.attr == "sessions":
            return True
    return False


def _names(node: ast.expr) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


class _CoroutineScan:
    """One generator function: linear source-order taint walk."""

    def __init__(self) -> None:
        self.yields = 0
        #: local name -> yield count at its last state-read assignment.
        self.taint: dict[str, int] = {}
        self.flagged: list[tuple[ast.AST, str]] = []

    # -- expressions ---------------------------------------------------------

    def expr(self, node: ast.expr | None) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                self.yields += 1
            elif isinstance(sub, ast.Call):
                self._check_call(sub)
            elif isinstance(sub, (ast.Lambda, ast.FunctionDef)):
                pass  # nested scopes keep their own discipline

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name not in MUTATORS:
            return
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            stale = self._stale_names(arg)
            if stale:
                self.flagged.append((call, f"{name}({', '.join(stale)})"))
                return

    def _stale_names(self, node: ast.expr) -> list[str]:
        return sorted(
            name for name in _names(node)
            if name in self.taint and self.taint[name] < self.yields
        )

    # -- statements ----------------------------------------------------------

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            self.expr(node.value)
            self._assign(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign):
            self.expr(node.value)
            if node.value is not None:
                self._assign([node.target], node.value)
        elif isinstance(node, ast.AugAssign):
            self.expr(node.value)
            self._store_check(node.target, node.value)
            if isinstance(node.target, ast.Name):
                self.taint.pop(node.target.id, None)
        elif isinstance(node, (ast.Expr, ast.Return)):
            self.expr(node.value)
        elif isinstance(node, ast.If):
            self.expr(node.test)
            self.block(node.body)
            self.block(node.orelse)
        elif isinstance(node, (ast.While,)):
            self.expr(node.test)
            self.block(node.body)
            self.block(node.orelse)
        elif isinstance(node, ast.For):
            self.expr(node.iter)
            if isinstance(node.target, ast.Name):
                self.taint.pop(node.target.id, None)
            self.block(node.body)
            self.block(node.orelse)
        elif isinstance(node, ast.Try):
            self.block(node.body)
            for handler in node.handlers:
                self.block(handler.body)
            self.block(node.orelse)
            self.block(node.finalbody)
        elif isinstance(node, ast.With):
            for item in node.items:
                self.expr(item.context_expr)
            self.block(node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # nested scopes keep their own discipline
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.expr(child)

    def _assign(
        self, targets: typing.Sequence[ast.expr], value: ast.expr
    ) -> None:
        for target in targets:
            self._store_check(target, value)
            if isinstance(target, ast.Name):
                if _is_state_read(value):
                    self.taint[target.id] = self.yields
                else:
                    # Any other reassignment is the revalidation point.
                    self.taint.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.taint.pop(element.id, None)

    def _store_check(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Attribute) and target.attr in STATE_STORE_ATTRS:
            stale = self._stale_names(value)
            if stale:
                self.flagged.append(
                    (target, f"store to .{target.attr} of {', '.join(stale)}")
                )

    def block(self, body: typing.Sequence[ast.stmt]) -> None:
        for node in body:
            self.stmt(node)


def _is_generator(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not func:
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


class StaleYieldRule(Rule):
    id = "REP007"
    title = "protocol state mutated after a yield from a stale pre-yield read"
    scope = PROTOCOL

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.FunctionDef) or not _is_generator(node):
                continue
            scan = _CoroutineScan()
            scan.block(node.body)
            for anchor, what in scan.flagged:
                yield self.finding(
                    ctx,
                    anchor,
                    f"{what} uses a session/unreadable read taken before a "
                    "yield; the site's state may have changed while "
                    "suspended — re-read it after resuming (REP007)",
                )
