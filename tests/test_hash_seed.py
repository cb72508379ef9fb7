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
* ``repro trace --experiment e8 --seed 1 --jsonl F``, the raw span and
  metric stream.
"""

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "2", "3")
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
                _start(["trace", "--experiment", "e8", "--seed", "1",
                        "--out", "trace.json", "--jsonl", "trace.jsonl"], hash_seed, cwd),
            )
        tables, streams = {}, {}
        for hash_seed, (table, trace) in runs.items():
            out, err = table.communicate(timeout=TIMEOUT_S)
            assert table.returncode == 0, err.decode()
            tables[hash_seed] = _without_wall_footer(out)
            _, err = trace.communicate(timeout=TIMEOUT_S)
            assert trace.returncode == 0, err.decode()
            streams[hash_seed] = (tmp_path / hash_seed / "trace.jsonl").read_bytes()
    finally:
        for proc in (proc for pair in runs.values() for proc in pair):
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    first = HASH_SEEDS[0]
    for hash_seed in HASH_SEEDS[1:]:
        assert tables[hash_seed] == tables[first], (
            f"repro e8 table differs under PYTHONHASHSEED={hash_seed} vs {first}")
        assert streams[hash_seed] == streams[first], (
            f"trace JSONL differs under PYTHONHASHSEED={hash_seed} vs {first}")
