"""Execution histories and the §4 serializability theory.

* :class:`~repro.histories.recorder.HistoryRecorder` — collects the
  physical reads/writes of a run as rows of typed columns (reads carry
  the version they observed, i.e. the writer they read from); the checks
  read its committed ones as :class:`Op` tuples.
* :mod:`repro.histories.graphs` — conflict graphs, serializability
  testing graphs (STG) and one-serializability testing graphs (1-STG),
  with the paper's copier-aware READ-FROM semantics.
* :mod:`repro.histories.checker` — acyclicity-based SR and 1-SR checks
  used as test oracles (Theorems 1, 2 and the §4 Corollary).
"""

from repro.histories.checker import CheckResult, check_one_sr, check_sr, check_theorem3
from repro.histories.graphs import build_conflict_graph, build_one_stg
from repro.histories.recorder import HistoryRecorder, Op, OpType

__all__ = [
    "CheckResult",
    "HistoryRecorder",
    "Op",
    "OpType",
    "build_conflict_graph",
    "build_one_stg",
    "check_one_sr",
    "check_sr",
    "check_theorem3",
]
