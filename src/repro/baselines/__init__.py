"""Baseline replication/recovery schemes the paper argues against.

* :class:`~repro.baselines.naive.NaiveAvailableCopies` — "write to all
  currently available copies, no further conventions": the scheme of the
  paper's §1 counter-example. Fast and wrong: it commits executions that
  are not one-serializable (reproduced by experiment E8).
* :class:`~repro.baselines.rowa.StrictROWA` — read-one/write-*all* (§2):
  always correct, never needs database recovery, but write availability
  collapses as soon as any replica site is down (experiment E1).
* :class:`~repro.baselines.quorum.QuorumConsensus` — weighted-majority
  reads and writes; the classic availability yardstick (experiment E1).
* :class:`~repro.baselines.directories.DirectoryAvailableCopies` — the
  Bernstein–Goodman directory-oriented scheme [2]: per-item status
  directories maintained by status transactions (INCLUDE/EXCLUDE);
  contrast in control-overhead and resume latency (E2, E7).
* :class:`~repro.baselines.spooler.SpoolerSystem` — the Hammer–Shipman
  reliable-spooler approach [6]: missed updates are kept in the durable
  §5 stale-copy table and replayed before the recovering site resumes
  (experiment E2).
"""

from repro.baselines.directories import (
    DirectoryAvailableCopies,
    DirectoryService,
    DirectorySystem,
)
from repro.baselines.naive import NaiveAvailableCopies
from repro.baselines.quorum import QuorumConsensus
from repro.baselines.rowa import StrictROWA
from repro.baselines.spooler import SpoolerSystem
from repro.baselines.systems import SCHEMES, build_rowaa_system, build_system

__all__ = [
    "DirectoryAvailableCopies",
    "DirectoryService",
    "DirectorySystem",
    "NaiveAvailableCopies",
    "QuorumConsensus",
    "SCHEMES",
    "SpoolerSystem",
    "StrictROWA",
    "build_rowaa_system",
    "build_system",
]
