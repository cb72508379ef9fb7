"""The rule implementations: :data:`RULES` holds one instance of each."""

from repro.lint.rules.rep001_determinism import NondeterminismRule
from repro.lint.rules.rep003_isolation import CrossSiteReachThroughRule
from repro.lint.rules.rep004_durability import DurabilityBypassRule
from repro.lint.rules.rep005_floateq import FloatEqualityRule
from repro.lint.rules.rep007_stale_yield import StaleYieldRule

#: Every rule, ordered by id; the engine runs these unless told otherwise.
RULES = (
    NondeterminismRule(),
    CrossSiteReachThroughRule(),
    DurabilityBypassRule(),
    FloatEqualityRule(),
    StaleYieldRule(),
)
