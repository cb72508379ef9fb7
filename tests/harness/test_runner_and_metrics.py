"""Tests for the experiment runner helpers and metric aggregation."""

import pytest

from repro.baselines import SCHEMES
from repro.harness.metrics import network_totals, tm_totals
from repro.harness.runner import (
    build_scheme,
    quiesce,
    replicated_catalog,
)
from tests.core.conftest import write_program


class TestBuildScheme:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_every_scheme_boots_and_serves(self, scheme):
        kernel, system = build_scheme(scheme, seed=5, n_sites=3,
                                      items={"X": 0})
        assert system.cluster.operational_sites() == [1, 2, 3]
        proc = system.submit(1, write_program("X", 1))
        kernel.run(proc)
        assert system.copy_value(1, "X") == 1
        system.stop()

    def test_replicated_catalog_degree(self):
        catalog = replicated_catalog(5, [f"X{i}" for i in range(20)], 2, seed=3)
        for item in catalog.items():
            assert len(catalog.sites_of(item)) == 2

    def test_quiesce_brings_everything_back(self):
        kernel, system = build_scheme("rowaa", seed=6, n_sites=3,
                                      items={"X": 0})
        system.crash(2)
        system.crash(3)
        kernel.run(until=kernel.now + 30)
        quiesce(kernel, system, grace=400.0)
        assert system.cluster.operational_sites() == [1, 2, 3]


class TestMetricAggregation:
    def test_tm_totals(self):
        kernel, system = build_scheme("rowaa", seed=7, n_sites=3,
                                      items={"X": 0})
        kernel.run(system.submit(1, write_program("X", 1)))
        kernel.run(system.submit(2, write_program("X", 2)))
        totals = tm_totals(system)
        assert totals["committed"] == 2
        assert totals["aborted"] == 0
        assert totals["mean_latency"] > 0
        assert totals["p95_latency"] >= totals["mean_latency"] * 0.5
        system.stop()

    def test_tm_totals_abort_reasons(self):
        from repro.errors import TransactionAborted

        kernel, system = build_scheme("rowaa", seed=8, n_sites=3,
                                      items={"X": 0})
        system.crash(3)
        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(1, write_program("X", 1)))
        totals = tm_totals(system)
        assert totals["aborts_by_reason"].get("rpc-timeout", 0) >= 1
        system.stop()

    def test_network_totals_snapshot_shape(self):
        kernel, system = build_scheme("rowaa", seed=9, n_sites=3,
                                      items={"X": 0})
        kernel.run(system.submit(1, write_program("X", 1)))
        snapshot = network_totals(system)
        assert snapshot["sent"] > 0
        assert snapshot["delivered"] > 0
        assert isinstance(snapshot["by_kind"], dict)
        assert snapshot["by_kind"].get("dm.write", 0) > 0
        system.stop()
