"""The one table of system variants under comparison.

:data:`SCHEMES` maps a scheme name to the class (or strategy-bound
:class:`~repro.system.DatabaseSystem`) that assembles it; every entry
takes ``(kernel, n_sites, items, **kwargs)`` with the same knobs, so
experiments sweep *schemes* as data and :func:`build_system` is the one
construction call.
"""

from __future__ import annotations

import functools
import typing

from repro.baselines.directories import DirectorySystem
from repro.baselines.naive import NaiveAvailableCopies
from repro.baselines.quorum import QuorumConsensus
from repro.baselines.rowa import StrictROWA
from repro.baselines.spooler import SpoolerSystem
from repro.core.system import RowaaSystem
from repro.sim.kernel import Kernel
from repro.system import DatabaseSystem

SCHEMES: dict[str, typing.Callable[..., DatabaseSystem]] = {
    # The paper's protocol.
    "rowaa": RowaaSystem,
    # Strict read-one/write-all (§2).
    "rowa": functools.partial(
        DatabaseSystem, strategy_factory=lambda _system: StrictROWA()
    ),
    # Majority quorum consensus.
    "quorum": functools.partial(
        DatabaseSystem, strategy_factory=lambda _system: QuorumConsensus()
    ),
    # The unsound §1 scheme (correctness foil, overhead floor).
    "naive": functools.partial(
        DatabaseSystem,
        strategy_factory=lambda system: NaiveAvailableCopies(system.cluster),
    ),
    # Directory-oriented available copies (Bernstein–Goodman [2]).
    "directories": DirectorySystem,
    # Session machinery + spooled-redo recovery (approach 1 of §1).
    "spooler": SpoolerSystem,
}


def build_system(
    scheme: str,
    kernel: Kernel,
    n_sites: int,
    items: dict[str, object],
    **kwargs: typing.Any,
) -> DatabaseSystem:
    """A booted system of the named scheme; ``kwargs`` go to its class
    (``catalog``, ``config``, ``latency``, ``rowaa_config``, …)."""
    system = SCHEMES[scheme](kernel, n_sites, items, **kwargs)
    system.boot()
    return system


#: The one scheme-specific spelling kept: the reference benchmark
#: (``benchmarks/perf``) imports it.
build_rowaa_system = functools.partial(build_system, "rowaa")
