"""REP001 — nondeterminism sources outside RngRegistry / virtual time.

Every run of a scenario must be a pure function of its seed: the
tier-1 test ``TestCrashReplayDeterminism``
(``tests/storage/test_wal_checkpoint.py``) replays a traced recovery
twice and requires byte-identical durable state, and every experiment
table is reproduced from ``--seed``. Two things break that silently:

* randomness not drawn from a named
  :class:`~repro.sim.rng.RngRegistry` stream (module-level ``random.*``
  functions share one hidden global state; ``os.urandom``/``uuid`` are
  nondeterministic by design). Constructing an explicitly seeded
  ``random.Random(seed)`` is allowed — that is exactly what the
  registry hands out.
* wall-clock reads inside simulated time (``time.time()``,
  ``datetime.now()``, …): the kernel's virtual clock is the only clock
  protocol code may observe. The harness/obs/cli layers legitimately
  time walls and stamp artifacts, so the wall-clock check is scoped to
  the SIM_TIME packages.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.rule import Rule
from repro.lint.rules._scopes import SIM_TIME

_WALL_CLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_FACTORIES = frozenset({"now", "utcnow", "today", "fromtimestamp"})
_DATETIME_RECEIVERS = frozenset({"datetime", "date"})


class NondeterminismRule(Rule):
    id = "REP001"
    title = "randomness or wall-clock reads outside RngRegistry/virtual time"
    # The registry itself wraps random.Random; latency models and
    # workload generators *receive* seeded streams and only name the
    # random.Random type in annotations, which is allowed anyway.
    exclude = ("repro/sim/rng.py",)

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        random_aliases: set[str] = set()
        time_aliases: set[str] = set()
        bare_clock_names: set[str] = set()
        in_sim_time = ctx.in_scope(SIM_TIME)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
                    elif alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name != "Random":
                            yield self.finding(
                                ctx,
                                node,
                                f"'from random import {alias.name}' uses the "
                                "hidden global RNG; draw from a named "
                                "RngRegistry stream instead",
                            )
                elif node.module == "time" and in_sim_time:
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME_FUNCS:
                            bare_clock_names.add(alias.asname or alias.name)
                            yield self.finding(
                                ctx,
                                node,
                                f"'from time import {alias.name}' reads the "
                                "wall clock inside simulated time; use "
                                "kernel.now",
                            )

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                if (
                    in_sim_time
                    and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in bare_clock_names
                ):
                    yield self.finding(
                        ctx, node, "wall-clock read inside simulated time; "
                        "use kernel.now"
                    )
                continue
            value = node.value
            if isinstance(value, ast.Name):
                if value.id in random_aliases and node.attr != "Random":
                    yield self.finding(
                        ctx,
                        node,
                        f"random.{node.attr} uses the hidden global RNG; "
                        "draw from a named RngRegistry stream "
                        "(kernel.rng.stream(...)) instead",
                    )
                elif (
                    in_sim_time
                    and value.id in time_aliases
                    and node.attr in _WALL_CLOCK_TIME_FUNCS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"time.{node.attr}() reads the wall clock inside "
                        "simulated time; use kernel.now",
                    )
                elif value.id == "os" and node.attr == "urandom":
                    yield self.finding(
                        ctx, node, "os.urandom is nondeterministic; use an "
                        "RngRegistry stream"
                    )
                elif value.id == "uuid" and node.attr in {"uuid1", "uuid4"}:
                    yield self.finding(
                        ctx,
                        node,
                        f"uuid.{node.attr} is nondeterministic; derive ids "
                        "from seeded counters or RngRegistry streams",
                    )
                elif (
                    in_sim_time
                    and value.id in _DATETIME_RECEIVERS
                    and node.attr in _DATETIME_FACTORIES
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{value.id}.{node.attr}() reads the wall clock "
                        "inside simulated time; use kernel.now",
                    )
            elif (
                in_sim_time
                and isinstance(value, ast.Attribute)
                and value.attr in _DATETIME_RECEIVERS
                and node.attr in _DATETIME_FACTORIES
            ):
                # datetime.datetime.now(), datetime.date.today()
                yield self.finding(
                    ctx,
                    node,
                    f"{value.attr}.{node.attr}() reads the wall clock inside "
                    "simulated time; use kernel.now",
                )
