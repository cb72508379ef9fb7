"""Exporter tests: JSONL stream and Chrome trace-event output."""

import json

from repro.harness.runner import build_traced_scheme
from repro.obs.export import (
    US_PER_SIM_UNIT,
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    export_metrics_json,
)


def _write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def _small_run():
    kernel, system = build_traced_scheme("rowaa", 3, 3, {"X": 0})
    obs = system.obs
    kernel.run(system.submit(1, _write_program("X", 1)))
    system.stop()
    kernel.run(until=kernel.now + 5)
    return kernel, system, obs


class TestJsonl:
    def test_stream_shape(self, tmp_path):
        _kernel, _system, obs = _small_run()
        path = tmp_path / "stream.jsonl"
        count = export_jsonl(obs, str(path), label="unit")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == count
        assert lines[0]["type"] == "meta"
        assert lines[0]["label"] == "unit"
        assert lines[-1]["type"] == "metrics"
        kinds = {line["type"] for line in lines}
        assert {"meta", "span", "metrics"} <= kinds
        spans = [line for line in lines if line["type"] == "span"]
        assert len(spans) == len(obs.spans.spans)
        # Every line round-trips as standalone JSON (the format's point).
        assert all(isinstance(line, dict) for line in lines)

    def test_open_spans_are_closed_and_tagged(self, tmp_path):
        kernel, _system, obs = _small_run()
        dangling = obs.spans.start("dangling", "test", 1)
        assert dangling.end is None
        path = tmp_path / "stream.jsonl"
        export_jsonl(obs, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        record = next(rec for rec in lines if rec.get("name") == "dangling")
        assert record["open"] is True
        assert record["end"] == kernel.now


class TestChromeTrace:
    def test_file_is_valid_trace_event_json(self, tmp_path):
        _kernel, _system, obs = _small_run()
        path = tmp_path / "trace.json"
        count = export_chrome_trace(obs, str(path), label="unit")
        doc = json.loads(path.read_text())
        assert doc["otherData"]["label"] == "unit"
        events = doc["traceEvents"]
        assert len(events) == count
        for event in events:
            assert event["ph"] in ("X", "i", "M")
            assert "pid" in event and "tid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0

    def test_span_tree_shares_root_tid(self):
        _kernel, _system, obs = _small_run()
        events = chrome_trace_events(obs)
        spans = [e for e in events if e["ph"] == "X"]
        root = next(e for e in spans if e["cat"] == "user")
        # Complete events of the same transaction tree occupy the root's
        # lane, so the remote serve work lines up under the txn visually.
        serve = [e for e in spans if e["cat"] == "serve"]
        assert serve
        assert all(e["tid"] == root["args"]["span_id"] for e in serve)

    def test_sim_time_scaling(self):
        _kernel, _system, obs = _small_run()
        events = chrome_trace_events(obs)
        span = next(e for e in events if e["ph"] == "X")
        original = next(
            s for s in obs.spans.spans if s.span_id == span["args"]["span_id"]
        )
        assert span["ts"] == original.start * US_PER_SIM_UNIT


class TestMetricsExport:
    def test_snapshot_file(self, tmp_path):
        _kernel, _system, obs = _small_run()
        path = tmp_path / "metrics.json"
        snapshot = export_metrics_json(obs, str(path), label="unit")
        doc = json.loads(path.read_text())
        assert doc["label"] == "unit"
        assert doc["snapshot"]["global"]["txn.committed"] == 1.0
        assert snapshot["global"] == doc["snapshot"]["global"]
