"""Workload and failure-injection generators for the experiments.

* :class:`~repro.workload.generator.WorkloadSpec` /
  :class:`~repro.workload.generator.WorkloadGenerator` — random
  transaction programs (read/write mixes, uniform or zipfian access,
  per-site clients).
* :class:`~repro.workload.failures.FailureSchedule` — scripted or random
  crash/recover sequences, applied to a running system.
* :class:`~repro.workload.client.ClientPool` — closed-loop client
  driver collecting commit/abort/latency outcomes.
"""

from repro.workload.client import ClientPool, ClientStats
from repro.workload.failures import FailureEvent, FailureSchedule
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

__all__ = [
    "ClientPool",
    "ClientStats",
    "FailureEvent",
    "FailureSchedule",
    "WorkloadGenerator",
    "WorkloadSpec",
]
