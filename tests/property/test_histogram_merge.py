"""Property test: the ``"all"`` histogram merge is a bucket-wise sum.

For any workload of (site, value) observations, the merged ``"all"``
entry of ``registry.snapshot()["histograms"]`` must equal the
bucket-wise sum of the per-site histograms, with consistent count, sum,
min, and max — merging must neither lose nor invent samples.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.obs.metrics import MetricsRegistry

observations = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 3, 4]),  # site
        st.floats(
            min_value=0.0, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    min_size=1,
    max_size=200,
)


def _bucket_sum(per_site_dicts):
    total = {}
    for doc in per_site_dicts:
        for bound, n in doc["buckets"].items():
            total[bound] = total.get(bound, 0) + n
    return total


@settings(max_examples=100, deadline=None)
@given(observations)
def test_all_merge_is_bucketwise_sum(workload):
    registry = MetricsRegistry()
    for site, value in workload:
        registry.histogram("txn.latency", site).observe(value)
    snap = registry.snapshot()["histograms"]["txn.latency"]
    per_site = [doc for key, doc in snap.items() if key != "all"]
    merged = snap["all"]

    assert merged["buckets"] == _bucket_sum(per_site)
    assert merged["count"] == sum(doc["count"] for doc in per_site) == len(workload)
    assert abs(merged["sum"] - sum(value for _s, value in workload)) <= max(
        1e-3, 1e-9 * abs(merged["sum"])
    )
    assert merged["min"] == min(value for _s, value in workload)
    assert merged["max"] == max(value for _s, value in workload)
    # Sanity: every observed site has its own entry.
    assert {f"site_{site}" for site, _v in workload} == set(snap) - {"all"}


@settings(max_examples=50, deadline=None)
@given(observations, observations)
@example(  # float addition is not associative: the two sums differ in the 6th dp
    first=[(1, 1.5523234267602675), (1, 1.089724849909544),
           (2, 1.5008671146351844), (2, 349621.9), (1, 659716.8150425772)],
    second=[(1, 87809.54882174288), (1, 999999.5171637883)],
)
def test_merge_is_order_independent(first, second):
    left, right = MetricsRegistry(), MetricsRegistry()
    for site, value in first + second:
        left.histogram("h", site).observe(value)
    for site, value in second + first:
        right.histogram("h", site).observe(value)
    merged_left = left.snapshot()["histograms"]["h"]["all"]
    merged_right = right.snapshot()["histograms"]["h"]["all"]
    # ``sum`` is a running float total (rounded to 6 dp) and ``mean``
    # derives from it, so observation order moves their last digits;
    # buckets, count, min and max are exact.
    for key in ("sum", "mean"):
        a, b = merged_left.pop(key), merged_right.pop(key)
        assert abs(a - b) <= max(1e-3, 1e-9 * abs(a)), key
    assert merged_left == merged_right
