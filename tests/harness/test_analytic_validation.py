"""Cross-validation of measured availability against an analytic model.

For ROWAA with k-way random replication over n sites and f crashed
sites, a logical operation on a uniformly chosen item succeeds iff the
item keeps at least one copy on a surviving site:

    P(available) = 1 - C(f, k) / C(n, k)

(the probability that all k copy slots landed on the f crashed sites).
The measured E1 cell must agree with the model within sampling noise —
a strong end-to-end sanity check connecting the whole simulator stack
to first-principles math.
"""

import math

from repro.harness.experiments import e1_availability
from repro.harness.parallel import run_experiment


def analytic_availability(n: int, k: int, f: int) -> float:
    if f < k:
        return 1.0
    return 1.0 - math.comb(f, k) / math.comb(n, k)


def test_e1_matches_hypergeometric_model():
    n_sites, replication, n_items = 5, 3, 30
    table = run_experiment(e1_availability, dict(
        seed=9,
        n_sites=n_sites,
        replication=replication,
        n_items=n_items,
        max_failed=4,
        load_duration=400.0,
    ))
    for failed in (0, 1, 2, 3, 4):
        (row,) = table.where(scheme="rowaa", failed=failed)
        # E1's clients issue 2 operations per transaction and a
        # transaction commits only if every operation succeeds, so the
        # measured committed fraction is the per-operation model squared
        # (operations are near-independent under uniform item choice).
        expected = analytic_availability(n_sites, replication, failed) ** 2
        measured = row["write_availability"]
        # Tolerance: placement is one random draw of 30 items (not the
        # expectation over placements) plus client sampling noise.
        assert abs(measured - expected) < 0.22, (failed, measured, expected)
        # Reads behave the same under ROWAA.
        assert abs(row["read_availability"] - expected) < 0.22


def test_analytic_model_boundaries():
    assert analytic_availability(5, 3, 0) == 1.0
    assert analytic_availability(5, 3, 2) == 1.0
    assert 0 < analytic_availability(5, 3, 3) < 1
    assert analytic_availability(5, 3, 4) == 1.0 - math.comb(4, 3) / math.comb(5, 3)
    assert analytic_availability(3, 1, 3) == 0.0
