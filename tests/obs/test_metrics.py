"""Unit tests for the metrics registry (repro.obs.metrics)."""

from repro.obs import Observability
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.sim import Kernel


class TestInstruments:
    def test_scalar_values_sum_over_sites(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: {("c", 1): 1.0, ("g", None): 7.5})
        registry.add_collector(lambda: {("c", 1): 2.0, ("c", 2): 1.0})
        assert registry.value("c", site=1) == 3.0
        assert registry.value("c", site=2) == 1.0
        assert registry.value("c") == 4.0  # global = sum over sites
        assert registry.value("g") == 7.5

    def test_instruments_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.series("s", site=2) is registry.series("s", site=2)

    def test_histogram_buckets_and_mean(self):
        hist = Histogram("h", None)
        for value in (0.5, 1.0, 2.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert abs(hist.mean - 25.875) < 1e-9
        data = hist.to_dict()
        assert data["count"] == 4
        assert sum(data["buckets"].values()) == 4

    def test_histogram_merge(self):
        one, two = Histogram("h", None), Histogram("h", None)
        one.observe(1.0)
        two.observe(4.0)
        merged = Histogram("h", None)
        one.merge_into(merged)
        two.merge_into(merged)
        assert merged.count == 2
        assert merged.mean == 2.5

    def test_bucket_bounds_cover_sim_scales(self):
        # Sub-unit RPC latencies up to multi-thousand-unit recoveries.
        assert BUCKET_BOUNDS[0] <= 0.125
        assert BUCKET_BOUNDS[-1] >= 100_000


class TestSnapshot:
    def test_collectors_are_pulled_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.add_collector(lambda: {("pulled.n", None): float(state["n"])})
        state["n"] = 5
        snapshot = registry.snapshot()
        assert snapshot["global"]["pulled.n"] == 5.0
        state["n"] = 9
        assert registry.snapshot()["global"]["pulled.n"] == 9.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: {("c", 1): 1.0})
        registry.histogram("h", site=1).observe(2.0)
        registry.histogram("h", site=2).observe(4.0)
        registry.series("s", site=1).append(0.0, 1.0)
        snapshot = registry.snapshot()
        assert snapshot["per_site"]["c"][1] == 1.0
        assert snapshot["global"]["c"] == 1.0
        # Histograms expose per-site views plus an "all" merge.
        assert snapshot["histograms"]["h"]["site_1"]["count"] == 1
        assert snapshot["histograms"]["h"]["all"]["count"] == 2
        assert snapshot["series"]["s@1"] == [(0.0, 1.0)]


class TestPercentile:
    """Regression pin on the one half-up nearest-rank percentile.

    Before PR 7 three modules each carried their own copy with subtly
    different rank conventions (ceil vs half-up); every consumer now
    imports this one, so the convention is pinned here once.
    """

    def test_half_up_nearest_rank(self):
        assert percentile([1.0, 2.0], 50) == 2.0  # rounds up at .5
        assert percentile(list(range(1, 101)), 50) == 51.0
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # sorts its input

    def test_edges_and_clamping(self):
        assert percentile([], 50) == 0.0
        assert percentile([5.0], 99) == 5.0
        assert percentile([1.0, 2.0, 3.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0], -5) == 1.0
        assert percentile([1.0, 2.0, 3.0], 100) == 3.0
        assert percentile([1.0, 2.0, 3.0], 150) == 3.0

    def test_single_shared_implementation(self):
        from repro.harness import metrics as harness_metrics
        from repro.obs import instrument

        assert harness_metrics.percentile is percentile
        assert instrument.percentile is percentile


class TestObservability:
    def test_disabled_by_default(self):
        obs = Observability(Kernel(seed=0))
        assert not obs.spans_on
        assert not obs.timeline_on
        obs.enable_spans()
        obs.enable_timeline()
        assert obs.spans_on and obs.timeline_on
