"""Tests for the parallel experiment runner.

The load-bearing property is that a cell is a pure function of its
arguments: a pooled run must produce exactly the same table as a
serial run, row for row. If this ever breaks, the parallel grid is
silently computing different experiments than the paper tables.
"""

import pathlib
import subprocess
import sys

from repro.harness import parallel
from repro.harness.experiments import e5_identification, e7_control_cost
from repro.harness.runner import cell_seed

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

E5_PARAMS = dict(seed=1, n_sites=3, n_items=6, update_fractions=(0.5,))

E7_PARAMS = dict(seed=1, n_sites=3, item_counts=(4,))


class TestSerialPoolIdentity:
    def test_e5_pooled_matches_serial(self):
        serial = parallel.run_experiment(e5_identification, dict(E5_PARAMS))
        pooled = parallel.run_experiment(
            e5_identification, dict(E5_PARAMS), jobs=2
        )
        assert pooled.rows == serial.rows
        assert pooled.rows  # non-degenerate: the experiment produced data

    def test_run_cells_preserves_plan_order(self):
        cells = e5_identification.plan(**E5_PARAMS)
        results = parallel.run_cells(cells, jobs=2)
        # Results line up with the cells positionally.
        assert results == parallel.run_cells(cells)
        assert len(results) == len(cells)


class TestRunGrid:
    def test_grid_over_two_experiments(self):
        specs = [
            ("e5", e5_identification, dict(E5_PARAMS)),
            ("e7", e7_control_cost, dict(E7_PARAMS)),
        ]
        tables = parallel.run_grid(specs, jobs=2)
        assert set(tables) == {"e5", "e7"}
        # Each table matches what the experiment produces on its own.
        solo_e5 = parallel.run_experiment(e5_identification, dict(E5_PARAMS))
        solo_e7 = parallel.run_experiment(e7_control_cost, dict(E7_PARAMS))
        assert tables["e5"].rows == solo_e5.rows
        assert tables["e7"].rows == solo_e7.rows


class TestCellSeed:
    def test_deterministic_and_distinct(self):
        assert cell_seed("e5", 1, "mark-all") == cell_seed("e5", 1, "mark-all")
        assert cell_seed("e5", 1, "mark-all") != cell_seed("e5", 2, "mark-all")
        assert cell_seed("e5", 1, "mark-all") != cell_seed("e4", 1, "mark-all")

    def test_stable_across_interpreters(self):
        # str hashing is salted per-process (PYTHONHASHSEED); cell_seed
        # must not be — pooled workers and reruns need the same seeds.
        script = (
            "from repro.harness.runner import cell_seed;"
            "print(cell_seed('e5', 1, 'mark-all'))"
        )
        values = set()
        for hash_seed in ("0", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
                cwd=str(REPO_ROOT),
            )
            values.add(int(out.stdout.strip()))
        assert values == {cell_seed("e5", 1, "mark-all")}
