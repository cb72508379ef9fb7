"""Experiment harness: metrics, tables, and the E1–E11 experiments.

The paper (ICDCS 1986) contains no measured tables or figures — its
evaluation is a set of qualitative claims. Each module under
:mod:`repro.harness.experiments` regenerates one claim as a table (see
DESIGN.md §3 for the index) and checks the claims on it with
``claims(table) -> list[Claim]``; :data:`repro.harness.runner.EXPERIMENTS`
is the registry of them (module, title, CLI scales, traced scenarios).
"""

from repro.harness.tables import Claim, Table

__all__ = ["Claim", "Table"]
