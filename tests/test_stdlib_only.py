"""``src/repro`` imports the standard library and itself, nothing else.

``pyproject.toml`` declares ``dependencies = []``; these two tests hold
it to that. The static one reads every import statement; the dynamic one
catches what a scan cannot (``importlib``, a dependency of a dependency)
on the path a run actually takes: CLI import, build, boot, load — and
that this path loads no OpenSSL.
"""

import ast
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
ALLOWED = sys.stdlib_module_names | {"repro"}


def imported_top_level_names(tree):
    """Top-level package of every absolute import, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_statement_is_stdlib_or_repro():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 100
    foreign = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {name}"
        for path in sources
        for lineno, name in imported_top_level_names(ast.parse(path.read_text()))
        if name not in ALLOWED
    ]
    assert foreign == []


# Runs in a child so this process's pytest, hypothesis and networkx do not
# count; modules the child's own start-up loaded (site hooks) do not either.
CHILD = """
import random, sys
at_start = set(sys.modules)
import repro.cli
from repro.baselines import build_rowaa_system
from repro.sim import Kernel
from repro.workload import ClientPool, WorkloadGenerator, WorkloadSpec

spec = WorkloadSpec(n_items=16, write_fraction=0.5, zipf_s=1.0)
kernel = Kernel(seed=1)
system = build_rowaa_system(kernel, 3, spec.initial_items())
pool = ClientPool(system, WorkloadGenerator(spec, random.Random(1)), 2, think_time=1.0)
pool.start(50.0)
kernel.run(until=50.0)
assert pool.stats.committed > 0
# Seeds come from the in-tree SHA-256: OpenSSL (``_hashlib``, ``_ssl``)
# is not mapped into a run (DESIGN.md §5, "What a run maps").
assert not {"_hashlib", "_ssl"} & set(sys.modules), sorted({"_hashlib", "_ssl"} & set(sys.modules))
# ``import multiprocessing`` aliases ``__main__`` under this name.
allowed = sys.stdlib_module_names | {"repro", "__mp_main__"}
print(*sorted(m for m in set(sys.modules) - at_start if m.partition(".")[0] not in allowed))
"""


def test_a_running_system_loads_no_third_party_module():
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "0"},
        cwd=str(REPO_ROOT),
    )
    assert child.stdout.split() == []
