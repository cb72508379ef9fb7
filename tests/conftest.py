"""Tier-1 is a gate, so it must not roll dice.

Hypothesis runs derandomized (each test's examples derive from its
source, the same on every run) and keeps no example database, so a
property either fails on every run or on none and no ``.hypothesis/``
directory appears in the checkout. Per-test ``@settings(...)`` inherit
both from the profile loaded here.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
