"""Exporters: JSONL span/metric dumps and Chrome trace-event files.

Two output formats:

* **JSONL** — one JSON object per line: a ``meta`` header, then every
  span (``"type": "span"``) and timeline instant (``"type": "instant"``),
  any windowed time series (``"type": "series"``, when a sampler is
  attached), then one ``"type": "metrics"`` line with the registry
  snapshot. Easy to grep and to post-process with jq/pandas.
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev. Spans become complete (``"ph": "X"``) events,
  instants become instant (``"ph": "i"``) events, and an attached
  sampler's windows become counter-track (``"ph": "C"``) events. One
  simulated time unit
  is rendered as one millisecond (timestamps are in microseconds), each
  site is a process (``pid``), and each span tree occupies the thread
  (``tid``) of its root span so a transaction's remote RPC children line
  up under it visually.

Spans still open at export time (e.g. a recovery that never finished) are
closed at the current sim-time and tagged ``"open": true``.
"""

from __future__ import annotations

import json
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.spans import Span

#: Microseconds per simulated time unit in Chrome trace output
#: (1 sim unit -> 1 ms keeps typical runs in a readable range).
US_PER_SIM_UNIT = 1000.0


def _span_record(span: "Span", now: float) -> dict:
    record = span.to_dict()
    record["type"] = "span"
    if record["end"] is None:
        record["end"] = now
        record["open"] = True
    return record


def export_jsonl(obs: "Observability", path: str, label: str = "") -> int:
    """Write the full observability stream to ``path``; returns line count."""
    recorder = obs.spans
    now = obs.kernel.now
    lines = [
        {
            "type": "meta",
            "label": label,
            "sim_time": now,
            "spans": len(recorder.spans),
            "instants": len(recorder.instants),
        }
    ]
    lines.extend(_span_record(span, now) for span in recorder.spans)
    for instant in recorder.instants:
        record = instant.to_dict()
        record["type"] = "instant"
        lines.append(record)
    sampler = getattr(obs, "sampler", None)
    if sampler is not None:
        for entry in sampler.series():
            record = dict(entry)
            record["type"] = "series"
            record["t0"] = sampler.t0
            record["period"] = sampler.period
            lines.append(record)
    lines.append({"type": "metrics", "snapshot": obs.registry.snapshot()})
    with open(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return len(lines)


def _root_ids(spans: typing.Sequence["Span"]) -> dict[int, int]:
    """Map each span id to the id of its tree's root (path-compressed)."""
    by_id = {span.span_id: span for span in spans}
    roots: dict[int, int] = {}

    def resolve(span_id: int) -> int:
        chain = []
        current = span_id
        while True:
            cached = roots.get(current)
            if cached is not None:
                root = cached
                break
            span = by_id.get(current)
            if span is None or span.parent_id is None:
                root = current
                break
            chain.append(current)
            current = span.parent_id
        roots[current] = root
        for visited in chain:
            roots[visited] = root
        return root

    for span in spans:
        resolve(span.span_id)
    return roots


def chrome_trace_events(obs: "Observability") -> list[dict]:
    """The trace-event list (see module docstring for conventions)."""
    recorder = obs.spans
    now = obs.kernel.now
    roots = _root_ids(recorder.spans)
    events: list[dict] = []
    sites = sorted(
        {span.site_id for span in recorder.spans}
        | {instant.site_id for instant in recorder.instants}
    )
    for site_id in sites:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": site_id,
                "tid": 0,
                "args": {"name": f"site {site_id}"},
            }
        )
    for span in recorder.spans:
        end = span.end if span.end is not None else now
        args: dict = {"span_id": span.span_id, "category": span.category}
        if span.txn_id is not None:
            args["txn_id"] = span.txn_id
        if span.attrs:
            args.update({str(k): str(v) for k, v in span.attrs.items()})
        if span.end is None:
            args["open"] = True
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "pid": span.site_id,
                "tid": roots[span.span_id],
                "ts": span.start * US_PER_SIM_UNIT,
                "dur": max(0.0, (end - span.start)) * US_PER_SIM_UNIT,
                "args": args,
            }
        )
    for instant in recorder.instants:
        events.append(
            {
                "ph": "i",
                "name": f"{instant.category}/{instant.name}",
                "cat": instant.category,
                "pid": instant.site_id,
                "tid": 0,
                "ts": instant.time * US_PER_SIM_UNIT,
                "s": "g",
                "args": {"detail": instant.detail},
            }
        )
    sampler = getattr(obs, "sampler", None)
    if sampler is not None:
        # The windowed time series render as counter tracks right under
        # the span lanes: outage dips and recovery ramps line up with
        # the crash/power-on instants visually.
        from repro.obs.timeseries import counter_events

        events.extend(counter_events(sampler, us_per_unit=US_PER_SIM_UNIT))
    return events


def export_chrome_trace(obs: "Observability", path: str, label: str = "") -> int:
    """Write a Chrome trace-event file to ``path``; returns event count."""
    events = chrome_trace_events(obs)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "sim_time": obs.kernel.now},
    }
    with open(path, "w") as fh:
        json.dump(document, fh)
    return len(events)
