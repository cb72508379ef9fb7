"""replint — AST-based static analysis for the reproduction's invariants.

The protocol's correctness rests on properties the interpreter cannot
check: runs must be deterministic under a seed, all randomness must flow
through :class:`~repro.sim.rng.RngRegistry`, simulated sites may touch
remote state only through the network layer, and durable state must go
through the :class:`~repro.storage.stable.StableStorage`/WAL API. The
online auditor (:mod:`repro.audit`) verifies these dynamically, per run;
replint verifies them statically, over *all* code paths, at PR time.

Pieces:

* :mod:`repro.lint.engine` — file walker + per-file analysis driver.
* :mod:`repro.lint.rule` — the rule base class.
* :mod:`repro.lint.rules` — the rule implementations (REP001, REP003–REP005,
  REP007) and :data:`~repro.lint.rules.RULES`, one instance of each.
* :mod:`repro.lint.suppress` — ``# replint: disable=RULE`` comments.

The one runner is tier-1: ``tests/lint/test_baseline_gate.py`` lints
``src/repro`` with every rule and fails on any finding or on a
directive naming an unknown rule. See ``docs/STATIC_ANALYSIS.md`` for
the rule catalog and workflow.
"""

from repro.lint.engine import LintEngine
from repro.lint.findings import Finding
from repro.lint.rule import Rule
from repro.lint.rules import RULES

__all__ = ["RULES", "Finding", "LintEngine", "Rule"]
