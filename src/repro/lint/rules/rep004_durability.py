"""REP004 — durable-state writes bypassing the StableStorage/WAL API.

Crash semantics in this reproduction are modeled, not real: "stable"
means a :class:`~repro.storage.stable.StableStorage` blob (which
survives ``Site.crash()`` and is byte-accounted), "volatile" means a
plain attribute (wiped on crash). Direct file I/O from simulation-layer
code would create state with *neither* semantic — it would survive
crashes the model says destroy it, dodge the WAL's LSN ordering and the
serialize-boundary byte accounting, and make the crash-replay
determinism gate meaningless.

The harness/obs/audit/cli layers sit outside the simulated machines
and legitimately write artifacts (traces, tables, alert streams), so
the file-I/O half of the rule skips them.

The other half holds everywhere: stable storage has one writer per
record kind. The redo log (``repro/wal``) writes every durable record
and the TM (``repro/txn/manager.py``) its commit decisions; a
``.put`` / ``.delete`` on a receiver named ``stable`` anywhere else is
a second durable format that crash replay does not know about.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rule import Rule
from repro.lint.rules._scopes import DURABLE

#: The only writers of stable storage (see the module docstring).
_STABLE_WRITERS: tuple[str, ...] = ("repro/wal", "repro/txn/manager.py")

#: os.* calls that create/destroy/rename real filesystem state.
_OS_MUTATORS = frozenset(
    {
        "open",
        "remove",
        "unlink",
        "rename",
        "replace",
        "rmdir",
        "removedirs",
        "mkdir",
        "makedirs",
        "truncate",
        "write",
    }
)

#: pathlib-style mutating methods flagged on any receiver.
_PATH_MUTATORS = frozenset({"write_text", "write_bytes"})


class DurabilityBypassRule(Rule):
    id = "REP004"
    title = "durable-state write bypassing the StableStorage/WAL API"

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        file_io = ctx.in_scope(DURABLE)
        stable_writer = ctx.in_scope(_STABLE_WRITERS)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not stable_writer
                and isinstance(func, ast.Attribute)
                and func.attr in ("put", "delete")
                and _is_stable(func.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"stable.{func.attr}() outside repro/wal and the TM's "
                    "commit record; durable state has one writer, the redo log",
                )
            elif not file_io:
                continue
            elif isinstance(func, ast.Name) and func.id == "open":
                yield self.finding(
                    ctx,
                    node,
                    "direct file I/O in simulation-layer code; durable "
                    "state must go through StableStorage.put / the WAL",
                )
            elif isinstance(func, ast.Attribute):
                receiver = func.value
                receiver_name = receiver.id if isinstance(receiver, ast.Name) else ""
                if receiver_name in {"os", "shutil", "tempfile"} and (
                    receiver_name != "os" or func.attr in _OS_MUTATORS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{receiver_name}.{func.attr}() touches the real "
                        "filesystem from simulation-layer code; durable "
                        "state must go through StableStorage / the WAL",
                    )
                elif receiver_name == "io" and func.attr == "open":
                    yield self.finding(
                        ctx,
                        node,
                        "io.open() in simulation-layer code; durable state "
                        "must go through StableStorage / the WAL",
                    )
                elif func.attr in _PATH_MUTATORS:
                    yield self.finding(
                        ctx,
                        node,
                        f".{func.attr}() writes a real file from "
                        "simulation-layer code; durable state must go "
                        "through StableStorage / the WAL",
                    )


def _is_stable(receiver: ast.expr) -> bool:
    """True for ``stable`` or ``<anything>.stable``."""
    if isinstance(receiver, ast.Name):
        return receiver.id == "stable"
    return isinstance(receiver, ast.Attribute) and receiver.attr == "stable"
