"""Unit tests for result tables and metric helpers."""

import pytest

from repro.harness import Table
from repro.harness.metrics import mean
from repro.obs.metrics import percentile


class TestTable:
    def test_add_and_query(self):
        table = Table("t", ["a", "b"])
        table.add_row(a=1, b="x")
        table.add_row(a=2, b="y")
        assert table.column("a") == [1, 2]
        assert table.where(b="y") == [{"a": 2, "b": "y"}]

    def test_unknown_column_rejected(self):
        table = Table("t", ["a"])
        with pytest.raises(ValueError):
            table.add_row(a=1, oops=2)

    def test_missing_values_render_as_dash(self):
        table = Table("t", ["a", "b"])
        table.add_row(a=1)
        assert "-" in table.render()

    def test_render_is_aligned(self):
        table = Table("title", ["name", "value"])
        table.add_row(name="long-name-here", value=1.23456)
        table.add_row(name="x", value=True)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "long-name-here" in text
        assert "1.235" in text  # float formatting
        assert "yes" in text  # bool formatting

    def test_empty_table_renders(self):
        table = Table("empty", ["a"])
        assert "empty" in table.render()


class TestMetrics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile(values, 50) == 51  # rank floor(49.5+0.5) = 50
        assert percentile([], 95) == 0.0

    def test_percentile_single(self):
        assert percentile([7.0], 95) == 7.0
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 100) == 7.0

    def test_percentile_half_up_ties(self):
        # Two elements: the p50 rank is 0.5, which banker's rounding
        # (round()) would send to index 0; half-up must pick index 1.
        assert percentile([1.0, 2.0], 50) == 2.0
        # Order of the input must not matter.
        assert percentile([2.0, 1.0], 50) == 2.0

    def test_percentile_out_of_range_clamped(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -10) == 1.0
        assert percentile(values, 250) == 3.0
