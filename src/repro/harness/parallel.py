"""Parallel execution of the experiment grid.

Every experiment module describes its work as a flat list of
:class:`Cell` objects via ``plan()`` and folds the results back into
its table via ``assemble()``; ``run()`` is just plan → execute →
assemble (:func:`run_table`), so ``plan`` is the one place an
experiment's parameter list is written. A cell is a *pure function of
its arguments*: it builds its own kernel and system from scratch, and
``DatabaseSystem.__init__`` resets the global message/transaction
counters. Serial and pooled execution therefore produce identical
tables — a property the test suite asserts — and the (scheme × seed ×
parameter) grid can fan out across a process pool with no coordination
beyond the final merge.

Cells are dispatched with ``chunksize=1`` and merged in plan order, so
result order never depends on worker scheduling. Per-cell wall times
are collected alongside the results and can be persisted as a
machine-readable perf trajectory (``BENCH_grid.json``) — see
:func:`write_grid_trajectory`.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import sys
import typing

from repro.obs import hostclock


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independently executable unit of an experiment grid.

    ``fn`` must be a module-level function (pickled by reference) and
    ``kwargs`` picklable values; ``tag`` carries the row-identifying
    labels (scheme, failure count, …) used by ``assemble`` and by the
    perf trajectory.
    """

    experiment: str
    fn: typing.Callable[..., object]
    kwargs: dict
    tag: dict


@dataclasses.dataclass
class CellTiming:
    """Wall-clock cost of one executed cell."""

    experiment: str
    tag: dict
    wall: float


def execute_cell(cell: Cell) -> tuple[object, float]:
    """Run one cell; returns (result, wall seconds). Pool-worker entry."""
    start = hostclock.now()
    result = cell.fn(**cell.kwargs)
    return result, hostclock.now() - start


def run_cells(
    cells: typing.Sequence[Cell], jobs: int | None = None
) -> tuple[list, list[CellTiming]]:
    """Execute ``cells``, serially or in a pool of ``jobs`` processes.

    Results and timings come back in cell order either way.
    """
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        outcomes = [execute_cell(cell) for cell in cells]
    else:
        # Fork (where available) shares the already-imported modules;
        # cells never depend on inherited mutable state (see module doc).
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        with context.Pool(min(jobs, len(cells))) as pool:
            outcomes = pool.map(execute_cell, cells, chunksize=1)
    results = [result for result, _wall in outcomes]
    timings = [
        CellTiming(cell.experiment, cell.tag, wall)
        for cell, (_result, wall) in zip(cells, outcomes)
    ]
    return results, timings


def run_experiment(
    module, params: dict, jobs: int | None = None
) -> tuple[typing.Any, list[CellTiming]]:
    """Plan, execute (optionally pooled), and assemble one experiment."""
    cells = module.plan(**params)
    results, timings = run_cells(cells, jobs=jobs)
    return module.assemble(cells, results, **params), timings


def run_table(module_name: str, params: dict, jobs: int | None = None) -> typing.Any:
    """The body of every experiment module's ``run``: its table alone."""
    table, _timings = run_experiment(sys.modules[module_name], params, jobs=jobs)
    return table


def run_grid(
    specs: typing.Sequence[tuple[str, typing.Any, dict]],
    jobs: int | None = None,
) -> tuple[dict, list[CellTiming]]:
    """Execute several experiments' cells through one shared pool.

    ``specs`` is ``[(name, module, params), ...]``; returns
    ``({name: table}, timings)``. Pooling the union of all cells keeps
    the workers busy across experiment boundaries (the last long cell of
    e3 overlaps the first cells of e4 instead of serialising on a
    per-experiment barrier).
    """
    all_cells: list[Cell] = []
    spans: list[tuple[str, typing.Any, dict, int]] = []
    for name, module, params in specs:
        cells = module.plan(**params)
        spans.append((name, module, params, len(cells)))
        all_cells.extend(cells)
    results, timings = run_cells(all_cells, jobs=jobs)
    tables: dict[str, typing.Any] = {}
    index = 0
    for name, module, params, count in spans:
        tables[name] = module.assemble(
            all_cells[index : index + count],
            results[index : index + count],
            **params,
        )
        index += count
    return tables, timings


def write_grid_trajectory(
    path: str,
    timings: typing.Sequence[CellTiming],
    label: str,
    jobs: int | None,
    extra: dict | None = None,
) -> dict:
    """Append one grid-run entry to the ``BENCH_grid.json`` trajectory.

    Schema: ``{"benchmark": "grid", "entries": [entry, ...]}`` where an
    entry holds the label, the job count, total and per-experiment wall
    seconds, and the per-cell breakdown (experiment, tag, wall).
    """
    per_experiment: dict[str, float] = {}
    for timing in timings:
        per_experiment[timing.experiment] = (
            per_experiment.get(timing.experiment, 0.0) + timing.wall
        )
    entry = {
        "label": label,
        "jobs": jobs,
        "cells": len(timings),
        "cell_wall_total_s": round(sum(t.wall for t in timings), 4),
        "wall_by_experiment_s": {
            name: round(wall, 4) for name, wall in sorted(per_experiment.items())
        },
        "cell_walls": [
            {"experiment": t.experiment, "tag": t.tag, "wall_s": round(t.wall, 4)}
            for t in timings
        ],
    }
    if extra:
        entry.update(extra)
    try:
        with open(path) as handle:
            trajectory = json.load(handle)
    except (OSError, ValueError):
        trajectory = {"benchmark": "grid", "entries": []}
    trajectory.setdefault("entries", []).append(entry)
    with open(path, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    return entry
