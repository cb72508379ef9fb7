"""Doc-drift gate: docs/OBSERVABILITY.md's metric catalog is exhaustive.

Parses the five markdown tables of the "Metric catalog" section
(scalars, histograms, time series, sampled series, profiler metrics)
and compares the backticked metric names against a live
``registry.snapshot()`` from two audited traced runs (plus a live
sampler's ``series_names()`` and a ``HostProfiler``'s ``metrics()``
keys). Adding a metric without cataloguing it — or documenting one
that no longer exists — fails here.
"""

import pathlib
import re

import pytest

from repro.harness.runner import run_traced

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

_NAME = re.compile(r"`([a-z0-9_]+\.[a-z0-9_.]+)`")


def _catalog_tables():
    """The tables of the Metric catalog section, as lists of name sets."""
    text = DOC.read_text()
    start = text.index("## Metric catalog")
    end = text.index("\n## ", start + 1)
    section = text[start:end]
    tables, current = [], None
    for line in section.splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            names = set(_NAME.findall(first_cell))
            if current is None:
                current = set()
                tables.append(current)
            current.update(names)
        else:
            current = None
    return tables


@pytest.fixture(scope="module")
def snapshot():
    """One snapshot merged from audited traced runs of e2 and e11: the
    ``mvcc.*`` metrics exist only at a site that has taken a snapshot,
    and only e11's clients take one."""
    merged: dict = {}
    for experiment in ("e2", "e11"):
        run = run_traced(experiment, seed=1, audit=True)
        for section, values in run.obs.registry.snapshot().items():
            merged.setdefault(section, {}).update(values)
    return merged


class TestMetricCatalogDrift:
    def test_section_has_five_tables(self):
        assert len(_catalog_tables()) == 5

    def test_scalar_names_match_snapshot_exactly(self, snapshot):
        documented = _catalog_tables()[0]
        live = set(snapshot["global"])
        assert documented == live, (
            f"undocumented: {sorted(live - documented)}; "
            f"stale rows: {sorted(documented - live)}"
        )

    def test_histogram_names_match_snapshot_exactly(self, snapshot):
        documented = _catalog_tables()[1]
        live = set(snapshot["histograms"])
        assert documented == live

    def test_series_names_match_snapshot_exactly(self, snapshot):
        documented = _catalog_tables()[2]
        live = {key.split("@")[0] for key in snapshot["series"]}
        assert documented == live

    def test_sampled_series_match_live_sampler(self):
        from repro.harness.runner import build_traced_scheme

        documented = _catalog_tables()[3]
        _kernel, system = build_traced_scheme(
            "rowaa", 1, 3, {"X": 0}, sample=True
        )
        obs = system.obs
        live = set(obs.sampler.series_names())
        assert documented == live, (
            f"undocumented: {sorted(live - documented)}; "
            f"stale rows: {sorted(documented - live)}"
        )

    def test_profiler_metric_names_match_live(self):
        from repro.obs.profiler import HostProfiler

        documented = _catalog_tables()[4]
        live = set(HostProfiler().metrics())
        assert documented == live, (
            f"undocumented: {sorted(live - documented)}; "
            f"stale rows: {sorted(documented - live)}"
        )


def test_probe_event_table_is_the_bus_closed_set():
    """The "Probe events" table documents exactly ``Probes.__slots__``,
    one row per event, in the bus's own order."""
    from repro.sim.probes import EVENTS

    text = DOC.read_text()
    start = text.index("## Probe events")
    section = text[start:text.index("\n## ", start + 1)]
    rows = [
        re.findall(r"`([a-z_]+)`", line.split("|")[1])
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [name for row in rows for name in row] == list(EVENTS)


def test_run_directory_table_is_the_cli_file_tuple():
    """The "CLI" table documents exactly the files ``repro run`` writes,
    one row each, in the CLI's own order."""
    from repro.cli import RUN_FILES

    text = DOC.read_text()
    start = text.index("## CLI\n")
    section = text[start:text.index("\n### ", start)]
    rows = [
        re.findall(r"`([a-z_.]+)`", line.split("|")[1])
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [name for row in rows for name in row] == list(RUN_FILES)


def test_liveness_table_is_the_auditors_watchdogs():
    """The liveness-watchdog table names exactly the auditor's
    ``liveness.*`` rules, and every "(default N)" it quotes is the value
    of the constant it names."""
    from repro.audit import auditor

    text = DOC.read_text()
    start = text.index("Liveness watchdogs")
    section = text[start:text.index("\n### ", start)]
    source = pathlib.Path(auditor.__file__).read_text()
    rules = [
        re.findall(r"`(liveness\.[a-z_]+)`", line.split("|")[1])
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert sorted(name for row in rules for name in row) == sorted(
        set(re.findall(r'"(liveness\.[a-z_]+)"', source))
    )
    quoted = re.findall(r"`([A-Z_]+)` \(default ([0-9.]+)\)", section)
    assert {name for name, _value in quoted} == {"WATCHDOG_INTERVAL"} | {
        name for name in vars(auditor) if name.endswith("_BUDGET")
    }
    for name, value in quoted:
        assert getattr(auditor, name) == float(value), name
