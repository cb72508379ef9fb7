"""Experiment harness: metrics, tables, and the E1–E11 experiments.

The paper (ICDCS 1986) contains no measured tables or figures — its
evaluation is a set of qualitative claims. Each module under
:mod:`repro.harness.experiments` regenerates one claim as a table (see
DESIGN.md §3 for the index); :data:`repro.harness.runner.EXPERIMENTS`
is the registry of them (module, title, CLI scales, traced scenarios).

Every experiment exposes ``run(jobs=None, **params) -> Table`` with the
parameters of its ``plan``; benchmarks call them with scaled-down
parameters and print the table.
"""

from repro.harness.tables import Table

__all__ = ["Table"]
