"""REP003 — cross-site reach-through in protocol code.

A simulated site models a failure-isolated machine: the only way its
TM/DM/copier may observe or mutate another site's state is a message
through :mod:`repro.net` (which models latency, loss, and down sites).
Grabbing a peer's ``Site`` object via ``cluster.sites[...]`` or
``cluster.site(...)`` and poking its storage directly would bypass the
session-number validation and the crash model entirely — the protocol
would "work" in simulation while being unimplementable on real
machines.

Sanctioned exceptions, excluded by scope rather than flagged:

* ``repro/core/system.py`` — the scenario/system driver
  (crash/restart orchestration, whole-cluster fingerprints); it *is*
  the test harness's hand on the world, not protocol logic.
* ``repro.site.cluster`` — owns the site map by definition.
* ``repro.audit`` / ``repro.obs`` — declared read-only hooks, outside
  this rule's protocol scope.

Reads of cluster-level *status* (``cluster.site_ids``,
``cluster.detector(...)``) are allowed: they model the globally known
configuration and each site's local failure detector, per the paper.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rule import Rule
from repro.lint.rules._scopes import PROTOCOL


def _mentions_cluster(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "cluster"
    if isinstance(node, ast.Attribute):
        return node.attr == "cluster"
    return False


class CrossSiteReachThroughRule(Rule):
    id = "REP003"
    title = "protocol code reaching through to another site's state"
    scope = PROTOCOL
    exclude = ("repro/core/system.py",)

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "sites":
                yield self.finding(
                    ctx,
                    node,
                    "access to the cluster site map from protocol code; "
                    "remote state may only be reached via the net RPC "
                    "layer (rpc.call/call_many)",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "site"
                and _mentions_cluster(node.func.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "cluster.site(...) hands out another site's live "
                    "object; protocol code must go through the net RPC "
                    "layer instead",
                )
