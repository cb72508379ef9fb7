#!/usr/bin/env python3
"""Which lines of ``src/repro`` does real traffic reach? (stdlib only)

    python tools/traffic_map.py run OUTDIR -- CMD [ARG...]
    python tools/traffic_map.py report CLAIMED [TRAFFIC] [--tests TESTSDIR]

``run`` executes CMD with a line recorder switched on in every Python
process it starts: OUTDIR gets a ``sitecustomize.py`` that is put on
``PYTHONPATH`` and, because ``REPRO_TRAFFIC_OUT`` is set, installs a
``sys.settrace`` recorder for frames whose code lives under
``src/repro``; each process dumps ``{file: [lines]}`` as one JSON file
into OUTDIR when it exits. A code object whose lines have all been seen
stops being traced, so hot fully-covered functions cost nothing after
their first calls; a run costs about 2–3x its untraced time. Pool workers leave through
``os._exit`` and dump nothing: run grids serially (no ``--jobs``).

``report`` merges the dumps of each directory and compares them with the
executable lines of every module under ``src/repro`` (``co_lines()`` of
the compiled module and every nested code object). CLAIMED holds what
the paper's claims need (the runs that check them), TRAFFIC the rest of
the real traffic, TESTSDIR the test suite. Per module it prints
executable lines and the lines unreached by the claimed traffic, by all
traffic and by tests + traffic; then the functions no traffic entered,
which of those no test enters either, and, per protocol package, the
functions tests enter but the claimed traffic does not — code only its
own tests keep alive. ``tools/traffic.sh`` names both traffic sets.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import pathlib
import subprocess
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ENV = "REPRO_TRAFFIC_OUT"

_SITECUSTOMIZE = f"""\
import os, sys
if os.environ.get({ENV!r}):
    sys.path.insert(0, {str(ROOT / "tools")!r})
    import traffic_map
    traffic_map.install(os.environ[{ENV!r}])
"""


def _lines_of(code: types.CodeType) -> set[int]:
    return {line for _start, _end, line in code.co_lines() if line}


def install(outdir: str) -> None:
    """Start recording in this process; dump at interpreter exit."""
    prefix = str(PACKAGE) + os.sep
    seen: dict[types.CodeType, set[int]] = {}
    tracers: dict[types.CodeType, object] = {}

    def tracer_for(code: types.CodeType):
        todo = _lines_of(code)
        lines = seen.setdefault(code, set())

        def local(frame, event, _arg):
            if event == "line":
                lineno = frame.f_lineno
                if lineno not in lines:
                    lines.add(lineno)
                    todo.discard(lineno)
                    if not todo:
                        tracers[code] = None  # fully seen: stop tracing it
            return local

        return local

    def on_call(frame, _event, _arg):
        code = frame.f_code
        try:
            local = tracers[code]
        except KeyError:
            if not code.co_filename.startswith(prefix):
                tracers[code] = None
                return None
            local = tracers[code] = tracer_for(code)
        if local is not None:
            seen[code].add(frame.f_lineno)  # the def / resume line
        return local

    def dump() -> None:
        sys.settrace(None)
        merged: dict[str, set[int]] = {}
        for code, lines in seen.items():
            relative = os.path.relpath(code.co_filename, ROOT)
            merged.setdefault(relative, set()).update(lines)
        path = pathlib.Path(outdir) / f"traffic-{os.getpid()}-{id(seen):x}.json"
        path.write_text(json.dumps({k: sorted(v) for k, v in merged.items()}))

    atexit.register(dump)
    sys.settrace(on_call)


def run(outdir: pathlib.Path, command: list[str]) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    env = dict(os.environ)
    env[ENV] = str(outdir.resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        [str(outdir.resolve()), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(command, env=env).returncode


def _load(directory: pathlib.Path) -> dict[str, set[int]]:
    merged: dict[str, set[int]] = {}
    for path in sorted(directory.glob("traffic-*.json")):
        for name, lines in json.loads(path.read_text()).items():
            merged.setdefault(name, set()).update(lines)
    return merged


def _functions(code: types.CodeType):
    """Every nested function as (qualified name, body lines) — not class
    bodies (no CO_NEWLOCALS), lambdas or comprehensions. The ``def``
    line itself runs in the enclosing scope, so it is not body."""
    own = _lines_of(code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & 0x2 and not const.co_name.startswith("<"):
                yield const.co_qualname, _lines_of(const) - own
            yield from _functions(const)


def _all_lines(code: types.CodeType) -> set[int]:
    lines = _lines_of(code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _all_lines(const)
    return lines


#: The packages that implement the paper's protocol and its substrate,
#: as opposed to the tooling around it (harness, obs, lint, audit, ...).
PROTOCOL_PACKAGES = ("core", "txn", "wal", "mvcc", "net", "storage", "site", "baselines", "sim")


def report(
    claimed_dir: pathlib.Path,
    traffic_dir: pathlib.Path | None,
    tests_dir: pathlib.Path | None,
) -> int:
    claimed = _load(claimed_dir)
    traffic = _load(traffic_dir) if traffic_dir is not None else {}
    tests = _load(tests_dir) if tests_dir is not None else None
    total = unclaimed = unreached = unreached_by_both = 0
    rows, dead, dead_both = [], [], []
    tests_only: dict[str, list[str]] = {package: [] for package in PROTOCOL_PACKAGES}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = os.path.relpath(path, ROOT)
        module = compile(path.read_text(), str(path), "exec")
        executable = _all_lines(module)
        claim_hit = claimed.get(relative, set())
        hit = claim_hit | traffic.get(relative, set())
        test_hit = tests.get(relative, set()) if tests is not None else set()
        missed = executable - hit
        total += len(executable)
        unclaimed += len(executable - claim_hit)
        unreached += len(missed)
        line = f"{relative:58} {len(executable):6} {len(executable - claim_hit):7} {len(missed):6}"
        if tests is not None:
            missed_both = missed - test_hit
            unreached_by_both += len(missed_both)
            line += f" {len(missed_both):6}"
        rows.append(line)
        package = path.relative_to(PACKAGE).parts[0]
        for name, lines in _functions(module):
            if not lines:
                continue
            if not lines & hit:
                dead.append(f"{relative}: {name}")
                if tests is not None and not lines & test_hit:
                    dead_both.append(f"{relative}: {name}")
            if package in tests_only and lines & test_hit and not lines & claim_hit:
                tests_only[package].append(f"{relative}: {name}")
    header = f"{'module':58} {'lines':>6} {'claimed':>7} {'unrch':>6}"
    print(header + (f" {'+tests':>6}" if tests is not None else ""))
    print("\n".join(rows))
    summary = (f"\n{unclaimed} of {total} executable lines unreached by claimed traffic"
               f"; {unreached} by all traffic")
    if tests is not None:
        summary += f"; {unreached_by_both} by tests + traffic"
    print(summary)
    print(f"\nfunctions entered by no traffic ({len(dead)}):")
    print("\n".join(f"  {name}" for name in dead))
    if tests is not None:
        print(f"\n... and by no test ({len(dead_both)}):")
        print("\n".join(f"  {name}" for name in dead_both))
        counts = ", ".join(f"{p} {len(names)}" for p, names in tests_only.items())
        print(f"\nfunctions tests enter but the claimed traffic does not ({counts}):")
        for package, names in tests_only.items():
            print(f"  {package} ({len(names)}):")
            print("\n".join(f"    {name}" for name in names))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    runner = sub.add_parser("run")
    runner.add_argument("outdir", type=pathlib.Path)
    runner.add_argument("command", nargs=argparse.REMAINDER)
    reporter = sub.add_parser("report")
    reporter.add_argument("claimed", type=pathlib.Path)
    reporter.add_argument("traffic", type=pathlib.Path, nargs="?", default=None)
    reporter.add_argument("--tests", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    if args.mode == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run: no command given")
        return run(args.outdir, command)
    return report(args.claimed, args.traffic, args.tests)


if __name__ == "__main__":
    raise SystemExit(main())
