"""Windowed time-series sampler tests (tentpole, second half).

The sampler is a kernel-timer loop, so every test drives a real
:class:`~repro.sim.kernel.Kernel`: scheduled callbacks mutate the
probed state and the assertions check what landed in which window.
The outage-analysis tests build the canonical shape — steady rate,
a two-window outage with zero throughput, recovery — and check the
trough/baseline/recover-90 figures the report prints.
"""

import json

import pytest

from repro.obs import Observability
from repro.obs.export import export_jsonl
from repro.obs.timeseries import (
    WindowedSampler,
    attach_sampler,
    counter_events,
    outage_stats,
    render_outage_stats,
)
from repro.sim.kernel import Kernel


class _State:
    """Mutable probe target the scheduled callbacks poke."""

    def __init__(self):
        self.committed = 0
        self.up = True

    def bump(self, n=1):
        self.committed += n

    def set_up(self, up):
        self.up = up


def _sampler_with(state, kernel, period=10.0):
    sampler = WindowedSampler(kernel, period=period)
    sampler.add_delta("ts.committed", lambda: float(state.committed))
    sampler.add_gauge(
        "ts.site_up", lambda: 1.0 if state.up else 0.0, site=1
    )
    return sampler


class TestSampler:
    def test_delta_encoding_per_window(self):
        kernel = Kernel(seed=0)
        state = _State()
        sampler = _sampler_with(state, kernel)
        # window 1: +3, window 2: +1, window 3: nothing, window 4: +2
        for when in (2.0, 4.0, 6.0, 12.0, 33.0, 34.0):
            kernel.schedule_callback(when, state.bump)
        sampler.start()
        kernel.run(until=45.0)
        sampler.stop()
        assert sampler.windows == 4
        assert sampler.values("ts.committed") == [3.0, 1.0, 0.0, 2.0]
        assert sampler.window_times() == [10.0, 20.0, 30.0, 40.0]

    def test_delta_primed_at_start(self):
        # Commits before start() must not leak into the first window.
        kernel = Kernel(seed=0)
        state = _State()
        state.bump(7)
        sampler = _sampler_with(state, kernel)
        sampler.start()
        kernel.run(until=10.0)
        sampler.stop()
        assert sampler.values("ts.committed") == [0.0]

    def test_gauge_sampled_at_window_end(self):
        kernel = Kernel(seed=0)
        state = _State()
        sampler = _sampler_with(state, kernel)
        # Down for [3, 8]: invisible, both window ends see the site up.
        kernel.schedule_callback(3.0, state.set_up, False)
        kernel.schedule_callback(8.0, state.set_up, True)
        # Down again at 15: window 2's end (t=20) catches it.
        kernel.schedule_callback(15.0, state.set_up, False)
        sampler.start()
        kernel.run(until=25.0)
        sampler.stop()
        assert sampler.values("ts.site_up", site=1) == [1.0, 0.0]

    def test_add_probe_after_sampling_began_rejected(self):
        kernel = Kernel(seed=0)
        sampler = _sampler_with(_State(), kernel)
        sampler.start()
        kernel.run(until=10.0)
        with pytest.raises(RuntimeError, match="sampling began"):
            sampler.add_gauge("ts.late", lambda: 0.0)

    def test_stop_lets_unbounded_run_drain(self):
        kernel = Kernel(seed=0)
        sampler = _sampler_with(_State(), kernel)
        sampler.start()
        kernel.run(until=25.0)
        sampler.stop()
        kernel.run()  # must terminate: the timer is cancelled
        assert sampler.windows == 2

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            WindowedSampler(Kernel(seed=0), period=0.0)


def _outage_run():
    """Six windows: rate 0.4, a two-window outage, recovery at 0.4."""
    kernel = Kernel(seed=0)
    state = _State()
    sampler = _sampler_with(state, kernel)
    for when in (5.0, 15.0, 45.0, 55.0):
        kernel.schedule_callback(when, state.bump, 4)
    kernel.schedule_callback(21.0, state.set_up, False)
    kernel.schedule_callback(41.0, state.set_up, True)
    sampler.start()
    kernel.run(until=65.0)
    sampler.stop()
    assert sampler.windows == 6
    return sampler


class TestOutageStats:
    def test_trough_baseline_and_recovery(self):
        stats = outage_stats(_outage_run())
        assert stats["baseline_rate"] == pytest.approx(0.4)
        assert len(stats["outages"]) == 1
        outage = stats["outages"][0]
        assert outage["start"] == 20.0
        assert outage["end"] == 40.0
        assert outage["windows"] == 2
        assert outage["trough_rate"] == 0.0
        assert outage["recovered_90_at"] == 50.0
        assert outage["time_to_recover_90"] == 10.0

    def test_render_lines(self):
        lines = render_outage_stats(outage_stats(_outage_run()))
        assert lines[0].startswith("throughput baseline 0.400")
        assert "outage t=20..40: trough=0.000" in lines[1]
        assert "recover90=+10" in lines[1]

    def test_unrecovered_outage_renders_never(self):
        kernel = Kernel(seed=0)
        state = _State()
        sampler = _sampler_with(state, kernel)
        kernel.schedule_callback(5.0, state.bump, 4)
        kernel.schedule_callback(11.0, state.set_up, False)
        sampler.start()
        kernel.run(until=35.0)
        sampler.stop()
        stats = outage_stats(sampler)
        assert stats["outages"][0]["time_to_recover_90"] is None
        assert "recover90=never" in render_outage_stats(stats)[1]


class TestExporters:
    def test_export_jsonl_series_lines_hold_deltas(self, tmp_path):
        sampler = _outage_run()
        obs = Observability(sampler.kernel)
        obs.sampler = sampler
        path = tmp_path / "run.jsonl"
        assert export_jsonl(obs, str(path), label="runA") == 4  # + 2 series
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert [x["type"] for x in lines] == ["meta", "series", "series", "metrics"]
        assert lines[0]["label"] == "runA"
        committed = next(
            x for x in lines if x["type"] == "series"
            and x["name"] == "ts.committed"
        )
        assert committed["kind"] == "delta"
        assert (committed["t0"], committed["period"]) == (0.0, 10.0)
        assert committed["values"] == [4.0, 4.0, 0.0, 0.0, 4.0, 4.0]

    def test_counter_events_rates_and_pids(self):
        events = counter_events(_outage_run(), us_per_unit=1000.0)
        assert all(e["ph"] == "C" for e in events)
        rates = [e for e in events if e["name"] == "ts.committed/s"]
        assert len(rates) == 6
        assert rates[0]["args"]["value"] == pytest.approx(0.4)
        assert rates[0]["pid"] == 0  # global series
        assert rates[0]["ts"] == 10_000.0
        site_up = [e for e in events if e["name"] == "ts.site_up"]
        assert {e["pid"] for e in site_up} == {1}  # per-site track


def _write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


class TestAttachSampler:
    def test_standard_probe_set_on_live_system(self):
        from repro.harness.runner import build_traced_scheme

        kernel, system = build_traced_scheme(
            "rowaa", 7, 3, {"X": 0}, sample_period=10.0
        )
        obs = system.obs
        assert obs.sampler is not None
        assert obs.sampler.series_names() == [
            "ts.aborted", "ts.committed", "ts.inflight_drains",
            "ts.missing_depth", "ts.site_up",
        ]
        kernel.run(system.submit(1, _write_program("X", 1)))
        kernel.run(until=45.0)
        system.stop()  # stops the sampler too
        kernel.run()  # and the queue actually drains
        assert obs.sampler.windows == 4
        assert sum(obs.sampler.values("ts.committed")) == 1.0
        # One ts.site_up series per site.
        sites = {
            entry["site"] for entry in obs.sampler.series()
            if entry["name"] == "ts.site_up"
        }
        assert sites == {1, 2, 3}

    def test_default_off(self):
        from repro.harness.runner import build_traced_scheme

        _kernel, system = build_traced_scheme("rowaa", 7, 3, {"X": 0})
        obs = system.obs
        assert obs.sampler is None
