"""``--selftest``: every workload and driver once at a tenth of the
horizon, the emitted result lines validated against the workload and
metric names and units ``BENCHMARK.json`` declares, and an AST scan that
keeps the benchmark on the program's public surface.

The scan is the guard that lets later issues rewrite ``repro.harness``
and ``repro.cli`` or rename private attributes without editing the
benchmark: it fails on any import of those modules and on any access to
an underscore-prefixed attribute of something that is not ``self``/``cls``.
"""

from __future__ import annotations

import ast
import pathlib
import time

from benchmarks.perf import catalog

FORBIDDEN_MODULES = ("repro.harness", "repro.cli")
SELFTEST_SCALE = 0.1
PACKAGE = pathlib.Path(__file__).resolve().parent


def scan_source(source: str, filename: str) -> list[str]:
    """Violations of the public-surface rule in one file."""
    problems = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            modules += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = []
        for module in modules:
            if any(module == bad or module.startswith(bad + ".") for bad in FORBIDDEN_MODULES):
                problems.append(f"{filename}:{node.lineno}: imports {module}")
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            problems.append(f"{filename}:{node.lineno}: touches private attribute .{node.attr}")
    return problems


def scan_package() -> list[str]:
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        problems += scan_source(path.read_text(), path.name)
    return problems


def validate_against_contract(results: dict[str, dict]) -> list[str]:
    """``results[workload][trace]`` is the parsed last line of a run."""
    contract = catalog.contract()
    problems = []
    declared = [entry["name"] for entry in contract["workloads"]]
    if sorted(declared) != sorted(results):
        problems.append(f"workloads run {sorted(results)} != declared {sorted(declared)}")
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        expected = {entry["name"]: entry["unit"] for entry in contract[section]}
        for workload, by_trace in results.items():
            line = by_trace[trace]
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: keys {sorted(line)}")
                continue
            if set(line["metrics"]) != set(expected):
                problems.append(
                    f"{workload} trace={trace}: metrics differ from {section}: "
                    f"{sorted(set(line['metrics']) ^ set(expected))}"
                )
            for name, reading in line["metrics"].items():
                if not isinstance(reading.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {name} is not a number")
                elif reading.get("unit") != expected.get(name):
                    problems.append(f"{workload} trace={trace}: {name} unit {reading.get('unit')}")
                elif trace == 0 and reading["value"] == 0:
                    problems.append(f"{workload}: end-to-end metric {name} is 0")
    return problems


def main(seed: int) -> int:
    """One quick rep of everything, in this interpreter."""
    from benchmarks.perf import run
    from benchmarks.perf.drivers import run_drivers
    from benchmarks.perf.spans import SpanRecorder
    from benchmarks.perf.workloads import WORKLOADS

    started = time.perf_counter()
    problems = scan_package()
    drivers = run_drivers(SpanRecorder("drivers"), 0.0, 1)
    results: dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        spans = SpanRecorder(name)
        try:
            setup = [run.setup_probe(name, seed)]
            plain, traced = run.traced_pair(workload, run.sub_seed(seed, 0), SELFTEST_SCALE, spans)
        except run.CheckFailed as failure:
            problems.append(f"{name}: {failure}")
            continue
        end_to_end, detail = run.end_to_end_metrics([plain], setup)
        per_layer, _detail = run.per_layer_metrics(plain, traced, drivers, spans)
        results[name] = {
            0: run.result_line(end_to_end, detail["client"], 0),
            1: run.result_line(per_layer, detail["client"], 1),
        }
    problems += validate_against_contract(results)
    for problem in problems:
        print("selftest: " + problem)
    verdict = "FAILED" if problems else "ok"
    print(f"selftest {verdict} in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0
