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
result order never depends on worker scheduling. How long a grid takes
is not measured here: performance is the reference benchmark's job
(``BENCHMARK.json``, ``benchmarks/perf/``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
import typing


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independently executable unit of an experiment grid.

    ``fn`` must be a module-level function (pickled by reference) and
    ``kwargs`` picklable values; ``tag`` carries the row-identifying
    labels (scheme, failure count, …) used by ``assemble``.
    """

    experiment: str
    fn: typing.Callable[..., object]
    kwargs: dict
    tag: dict


def execute_cell(cell: Cell) -> object:
    """Run one cell; returns its result. Pool-worker entry."""
    return cell.fn(**cell.kwargs)


def run_cells(cells: typing.Sequence[Cell], jobs: int | None = None) -> list:
    """Execute ``cells``, serially or in a pool of ``jobs`` processes.

    Results come back in cell order either way.
    """
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        return [execute_cell(cell) for cell in cells]
    # Fork (where available) shares the already-imported modules;
    # cells never depend on inherited mutable state (see module doc).
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    with context.Pool(min(jobs, len(cells))) as pool:
        return pool.map(execute_cell, cells, chunksize=1)


def run_experiment(module, params: dict, jobs: int | None = None) -> typing.Any:
    """Plan, execute (optionally pooled), and assemble one experiment."""
    cells = module.plan(**params)
    return module.assemble(cells, run_cells(cells, jobs=jobs), **params)


def run_table(module_name: str, params: dict, jobs: int | None = None) -> typing.Any:
    """The body of every experiment module's ``run``: its table."""
    return run_experiment(sys.modules[module_name], params, jobs=jobs)


def run_grid(
    specs: typing.Sequence[tuple[str, typing.Any, dict]],
    jobs: int | None = None,
) -> dict:
    """Execute several experiments' cells through one shared pool.

    ``specs`` is ``[(name, module, params), ...]``; returns
    ``{name: table}``. Pooling the union of all cells keeps
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
    results = run_cells(all_cells, jobs=jobs)
    tables: dict[str, typing.Any] = {}
    index = 0
    for name, module, params, count in spans:
        tables[name] = module.assemble(
            all_cells[index : index + count],
            results[index : index + count],
            **params,
        )
        index += count
    return tables
