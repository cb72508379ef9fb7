#!/usr/bin/env python3
"""Which lines of ``src/repro`` does real traffic reach? (stdlib only)

    python tools/traffic_map.py run OUTDIR -- CMD [ARG...]
    python tools/traffic_map.py report TRAFFICDIR [--tests TESTSDIR]

``run`` executes CMD with a line recorder switched on in every Python
process it starts: OUTDIR gets a ``sitecustomize.py`` that is put on
``PYTHONPATH`` and, because ``REPRO_TRAFFIC_OUT`` is set, installs a
``sys.settrace`` recorder for frames whose code lives under
``src/repro``; each process dumps ``{file: [lines]}`` as one JSON file
into OUTDIR when it exits. A code object whose lines have all been seen
stops being traced, so hot fully-covered functions cost nothing after
their first calls; a run costs about 2–3x its untraced time. Pool workers leave through
``os._exit`` and dump nothing: run grids serially (no ``--jobs``).

``report`` merges the dumps of TRAFFICDIR and compares them with the
executable lines of every module under ``src/repro`` (``co_lines()`` of
the compiled module and every nested code object). It prints, per
module, executable / unreached line counts, then the functions no
traffic entered — and, given ``--tests`` (a second dump directory,
recorded under the test suite), which of those no test enters either.
``tools/traffic.sh`` names the traffic set.
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


def report(traffic_dir: pathlib.Path, tests_dir: pathlib.Path | None) -> int:
    traffic = _load(traffic_dir)
    tests = _load(tests_dir) if tests_dir is not None else None
    total = unreached = unreached_by_both = 0
    rows, dead, dead_both = [], [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = os.path.relpath(path, ROOT)
        module = compile(path.read_text(), str(path), "exec")
        executable = _all_lines(module)
        hit = traffic.get(relative, set())
        missed = executable - hit
        total += len(executable)
        unreached += len(missed)
        line = f"{relative:58} {len(executable):6} {len(missed):6}"
        if tests is not None:
            missed_both = missed - tests.get(relative, set())
            unreached_by_both += len(missed_both)
            line += f" {len(missed_both):6}"
        rows.append(line)
        for name, lines in _functions(module):
            if lines and not lines & hit:
                dead.append(f"{relative}: {name}")
                if tests is not None and not lines & tests.get(relative, set()):
                    dead_both.append(f"{relative}: {name}")
    header = f"{'module':58} {'lines':>6} {'unrch':>6}"
    print(header + (f" {'+tests':>6}" if tests is not None else ""))
    print("\n".join(rows))
    print(f"\n{unreached} of {total} executable lines unreached by traffic"
          + (f"; {unreached_by_both} by tests + traffic" if tests is not None else ""))
    print(f"\nfunctions entered by no traffic ({len(dead)}):")
    print("\n".join(f"  {name}" for name in dead))
    if tests is not None:
        print(f"\n... and by no test ({len(dead_both)}):")
        print("\n".join(f"  {name}" for name in dead_both))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    runner = sub.add_parser("run")
    runner.add_argument("outdir", type=pathlib.Path)
    runner.add_argument("command", nargs=argparse.REMAINDER)
    reporter = sub.add_parser("report")
    reporter.add_argument("traffic", type=pathlib.Path)
    reporter.add_argument("--tests", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    if args.mode == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run: no command given")
        return run(args.outdir, command)
    return report(args.traffic, args.tests)


if __name__ == "__main__":
    raise SystemExit(main())
