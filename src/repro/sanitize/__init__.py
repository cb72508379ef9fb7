"""schedsan: schedule-space sanitizer for the simulation kernel.

Three layers (see docs/STATIC_ANALYSIS.md, "Dynamic sanitizers"):

1. :mod:`repro.sanitize.policy` — tie-break perturbation: pluggable
   policies over same-timestamp heap batches (canonical / seeded
   shuffle / directed replay), every decision recorded and replayable.
2. :mod:`repro.sanitize.hb` — happens-before race detection: vector
   clocks over strands, message edges via the rpc envelope, conflicting
   unordered accesses to copies/session state, plus a coroutine
   atomicity check (dynamic REP007).
3. :mod:`repro.sanitize.fuzz` — the ``repro schedfuzz`` harness:
   K perturbed schedules diffed against the canonical run (committed
   state fingerprint + audit-alert signature), ddmin shrinking of
   failing decision lists, replayable JSON artifacts.

Both probes attach through ``kernel.probes`` (:mod:`repro.sim.probes`)
and nowhere else, so their state is per kernel. This package
``__init__`` imports only the leaf modules; :mod:`.fuzz` pulls in the
scenario registry and is imported where it is used.
"""

from repro.sanitize.hb import RaceDetector, RaceReport, attach_detector
from repro.sanitize.policy import (
    STREAM_NAME,
    DirectedPolicy,
    ScheduleSpec,
    ShufflePolicy,
    TieBreakPolicy,
    attach_policy,
    directed_spec,
    sparse_decisions,
)

__all__ = [
    "RaceDetector",
    "RaceReport",
    "attach_detector",
    "STREAM_NAME",
    "DirectedPolicy",
    "ScheduleSpec",
    "ShufflePolicy",
    "TieBreakPolicy",
    "attach_policy",
    "directed_spec",
    "sparse_decisions",
]
