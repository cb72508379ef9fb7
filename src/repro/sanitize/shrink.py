"""Delta-debugging shrinker for failing schedules (schedsan layer 3).

A divergent shuffled run leaves behind a dense decision list — one index
per same-timestamp choice point. Most of those choices are irrelevant to
the divergence. The shrinker minimizes the *sparse* form (the
non-canonical choices only; everything else is the FIFO default) with
classic ddmin: drop chunks of decisions, re-run the scenario under a
:class:`~repro.sanitize.policy.DirectedPolicy` with the survivors, and
keep any subset that still diverges, until no single decision can be
removed (or ``SHRINK_BUDGET`` is exhausted — each probe is a full
scenario run, so the budget is what keeps shrinking bounded).

Note the usual delta-debugging caveat: removing an early decision shifts
every later choice point, so a surviving decision's *ordinal* is an
anchor into the replayed schedule, not a stable event identity. The
minimal plan is always re-validated by construction — it is only ever
returned if its own directed replay still diverges.
"""

from __future__ import annotations

import typing

Plan = typing.Dict[int, int]

#: Max scenario re-runs one shrink may spend.
SHRINK_BUDGET = 48


def ddmin(plan: Plan, diverges: typing.Callable[[Plan], bool]) -> tuple[Plan, int]:
    """Minimize ``plan`` (sparse decisions) preserving ``diverges``.

    Returns ``(minimal_plan, probes_used)``. ``diverges(plan)`` must
    re-run the scenario under the directed replay of ``plan`` and
    report whether the divergence reproduces; it is assumed true for
    the input plan (the caller observed the failure).
    """
    keys = sorted(plan)
    probes = 0

    def probe(subset: typing.Sequence[int]) -> bool:
        nonlocal probes
        probes += 1
        return diverges({k: plan[k] for k in subset})

    granularity = 2
    while len(keys) >= 2 and probes < SHRINK_BUDGET:
        chunk = max(1, len(keys) // granularity)
        reduced = False
        start = 0
        while start < len(keys) and probes < SHRINK_BUDGET:
            candidate = keys[:start] + keys[start + chunk:]
            if candidate and probe(candidate):
                keys = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # Re-scan from the front at the same granularity.
                start = 0
                continue
            start += chunk
        if not reduced:
            if granularity >= len(keys):
                break
            granularity = min(len(keys), granularity * 2)
    # Final one-at-a-time pass (1-minimality) while budget lasts.
    index = 0
    while index < len(keys) and probes < SHRINK_BUDGET:
        candidate = keys[:index] + keys[index + 1:]
        if candidate and probe(candidate):
            keys = candidate
        else:
            index += 1
    return {k: plan[k] for k in keys}, probes
