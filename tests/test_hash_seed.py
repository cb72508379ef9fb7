"""Same seed, same bytes, under any ``PYTHONHASHSEED``.

A run is a function of its ``--seed`` alone. String hashes are not: they
change with the interpreter's hash seed, so any iteration over a ``set``
of strings that reaches the kernel's event order (a lock release order,
a message fan-out) makes the same ``--seed`` print different tables on
different interpreters. A check inside one interpreter cannot see that —
both of its runs share one hash seed — so this gate starts child
interpreters under several hash seeds and compares their bytes:

* ``repro e8 --seed 3 --scale small``, the table and its claim lines
  (the wall-time footer dropped);
* ``repro run --experiment e8 --seed 1 --out D``, every file of the run
  directory but ``profile.json`` (host CPU seconds): the report, the
  Chrome trace, the JSONL stream, the alert stream, the latency budget
  and the sim-time flamegraph.
"""

import os
import pathlib
import subprocess
import sys

from repro.cli import RUN_FILES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "2", "3")
#: The files of a run directory that hold host-timed numbers.
HOST_TIMED = ("profile.json",)
#: Each child takes about a second alone; six share the cores.
TIMEOUT_S = 120


def _start(argv, hash_seed, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONHASHSEED=hash_seed)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _without_wall_footer(stdout):
    return b"".join(line for line in stdout.splitlines(keepends=True)
                    if not line.rstrip().endswith(b"wall)"))


def test_same_seed_same_bytes_under_any_hash_seed(tmp_path):
    runs = {}
    try:
        for hash_seed in HASH_SEEDS:
            cwd = tmp_path / hash_seed
            cwd.mkdir()
            runs[hash_seed] = (
                _start(["e8", "--seed", "3", "--scale", "small"], hash_seed, cwd),
                _start(["run", "--experiment", "e8", "--seed", "1",
                        "--out", "run"], hash_seed, cwd),
            )
        tables, run_dirs = {}, {}
        for hash_seed, (table, run) in runs.items():
            out, err = table.communicate(timeout=TIMEOUT_S)
            assert table.returncode == 0, err.decode()
            tables[hash_seed] = _without_wall_footer(out)
            _, err = run.communicate(timeout=TIMEOUT_S)
            assert run.returncode == 0, err.decode()
            run_dirs[hash_seed] = {
                path.name: path.read_bytes()
                for path in sorted((tmp_path / hash_seed / "run").iterdir())
                if path.name not in HOST_TIMED
            }
    finally:
        for proc in (proc for pair in runs.values() for proc in pair):
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    first = HASH_SEEDS[0]
    for hash_seed in HASH_SEEDS[1:]:
        assert tables[hash_seed] == tables[first], (
            f"repro e8 table differs under PYTHONHASHSEED={hash_seed} vs {first}")
        assert run_dirs[hash_seed].keys() == set(RUN_FILES) - set(HOST_TIMED)
        for name, data in run_dirs[first].items():
            assert run_dirs[hash_seed][name] == data, (
                f"run {name} differs under PYTHONHASHSEED={hash_seed} vs {first}")
