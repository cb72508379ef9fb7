"""The benchmark's own span recorder: host-time spans around the calls
into the program, kept in memory and written once at exit.

Spans inside the program are a later change; these wrap each phase
(``setup``, ``warmup``, ``rep[i]``, ``load``, ``fault:<site>``,
``recover:<site>``, ``drain``, ``check``) and each micro-driver from
the benchmark's side. A span's self time is its duration minus what its
children cover.
"""

from __future__ import annotations

import contextlib
import json
import time
import typing


class SpanRecorder:
    """Spans as ``[name, start, end, parent]`` rows, one workload id for all."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[list] = []

    def start(self, name: str, parent: int | None = None) -> int:
        self.rows.append([name, time.perf_counter(), None, parent])
        return len(self.rows) - 1

    def finish(self, span_id: int) -> None:
        self.rows[span_id][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None) -> typing.Iterator[int]:
        span_id = self.start(name, parent)
        try:
            yield span_id
        finally:
            self.finish(span_id)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part child spans cover."""
        now = time.perf_counter()
        covered = [0.0] * len(self.rows)
        for _name, start, end, parent in self.rows:
            if parent is not None:
                covered[parent] += (end if end is not None else now) - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.rows):
            duration = (end if end is not None else now) - start
            totals[name] = totals.get(name, 0.0) + duration - covered[index]
        return totals

    def write(self, path: str) -> None:
        spans = [
            {"id": index, "name": name, "start": start, "end": end, "parent": parent,
             "workload": self.workload}
            for index, (name, start, end, parent) in enumerate(self.rows)
        ]
        with open(path, "w") as handle:
            json.dump({"workload": self.workload, "spans": spans}, handle)
            handle.write("\n")
