"""Unit tests for the continuous-profiling subsystem (repro.obs.profiler).

The two invariants that matter:

* **host view** — the per-subsystem exclusive ``cpu_s`` tile the
  profiled dispatch loop's wall time exactly (run-length batching
  charges every interval to exactly one run), and every event lands in
  some subsystem bucket;
* **sim view** — the folded stacks charge every instant of a root
  span's window to exactly one root-to-leaf path, so per-root totals
  equal root durations whatever the tree shape.
"""

import pytest

from repro.obs.profiler import (
    HostProfiler,
    StackSampler,
    attach_profiler,
    folded_stacks,
    frame_label,
    render_profile,
    speedscope_document,
    subsystem_of_module,
    subsystem_of_path,
)
from repro.obs.spans import SpanRecorder
from repro.sim.kernel import Kernel


class TestSubsystemMap:
    def test_module_prefixes(self):
        assert subsystem_of_module("repro.txn.data_manager") == "dm"
        assert subsystem_of_module("repro.txn.locks") == "locks"
        assert subsystem_of_module("repro.txn.deadlock") == "locks"
        assert subsystem_of_module("repro.txn.manager") == "tm"
        assert subsystem_of_module("repro.core.copier") == "copier"
        assert subsystem_of_module("repro.core.recovery") == "recovery"
        assert subsystem_of_module("repro.sim.kernel") == "kernel"
        assert subsystem_of_module("repro.net.rpc") == "net"
        assert subsystem_of_module("repro.wal") == "wal"
        assert subsystem_of_module("repro.mvcc.store") == "mvcc"
        assert subsystem_of_module("repro.obs.timeseries") == "obs"
        assert subsystem_of_module("repro.harness.runner") == "workload"
        assert subsystem_of_module("repro.workload") == "workload"
        assert subsystem_of_module("some.third.party") == "other"

    def test_path_resolution(self):
        assert subsystem_of_path("/x/src/repro/net/rpc.py") == "net"
        assert subsystem_of_path("/x/src/repro/txn/locks.py") == "locks"
        assert subsystem_of_path("C:\\x\\repro\\wal\\log.py") == "wal"
        assert subsystem_of_path("/somewhere/else.py") == "other"


def _drain_timeouts(kernel, n=50):
    for index in range(n):
        kernel.timeout(index % 7)
    kernel.run()


class TestHostProfiler:
    def test_bare_timeouts_are_kernel_work(self):
        kernel = Kernel(seed=0)
        profiler = HostProfiler()
        profiler.attach(kernel)
        _drain_timeouts(kernel)
        assert set(profiler.cpu_s) == {"kernel"}
        assert profiler.total_events == kernel.events_processed == 50
        # The headline invariant: charges tile the dispatch wall.
        assert profiler.total_cpu_s == pytest.approx(
            profiler.dispatch_wall_s, rel=0.01
        )

    def test_detach_restores_plain_loop(self):
        kernel = Kernel(seed=0)
        profiler = HostProfiler()
        profiler.attach(kernel)
        _drain_timeouts(kernel, n=5)
        profiler.detach()
        _drain_timeouts(kernel, n=5)
        assert profiler.total_events == 5  # nothing after detach

    def test_process_resume_labelled_by_generator_file(self):
        kernel = Kernel(seed=0)
        profiler = HostProfiler()
        profiler.attach(kernel)

        def ticker():  # defined in tests/ => not a repro subsystem
            for _ in range(3):
                yield kernel.timeout(1.0)

        kernel.run(kernel.process(ticker()))
        assert "other" in profiler.events
        assert profiler.total_events == kernel.events_processed

    def test_callback_labelled_by_function_module(self):
        from repro.harness.runner import scenario_names

        kernel = Kernel(seed=0)
        profiler = HostProfiler()
        profiler.attach(kernel)
        for index in range(4):
            kernel.schedule_callback(float(index), scenario_names)
        kernel.run()
        assert profiler.events.get("workload") == 4

    def test_single_step_is_profiled(self):
        kernel = Kernel(seed=0)
        profiler = HostProfiler()
        profiler.attach(kernel)
        kernel.timeout(1.0)
        kernel.step()
        assert profiler.total_events == 1
        assert profiler.dispatch_wall_s > 0.0
        assert profiler.total_cpu_s == pytest.approx(profiler.dispatch_wall_s)

    def test_report_shares_and_metrics_shape(self):
        kernel = Kernel(seed=0)
        profiler = HostProfiler()
        profiler.attach(kernel)
        _drain_timeouts(kernel)
        report = profiler.report()
        assert report["total_events"] == 50
        entry = report["subsystems"]["kernel"]
        assert entry["share"] == pytest.approx(1.0)
        assert entry["cpu_per_event"] == pytest.approx(entry["cpu_s"] / 50)
        assert sum(profiler.shares().values()) == pytest.approx(1.0)
        metrics = profiler.metrics()
        assert metrics["prof.total_events"] == 50
        assert set(metrics) == {
            "prof.total_cpu_s", "prof.dispatch_wall_s", "prof.total_events",
            "prof.cpu_s", "prof.share", "prof.events", "prof.cpu_per_event",
        }
        rendered = render_profile(report)
        assert rendered.startswith("host-CPU profile: 50 events")
        assert "kernel" in rendered

    def test_idle_profiler_is_empty(self):
        profiler = HostProfiler()
        assert profiler.shares() == {}
        assert profiler.report()["subsystems"] == {}


def _write_x(ctx):
    yield from ctx.write("X", 1)


class TestSystemIntegration:
    def test_traced_scheme_attributes_protocol_work(self):
        from repro.harness.runner import build_traced_scheme

        kernel, system = build_traced_scheme(
            "rowaa", 1, 3, {"X": 0}, profile=True
        )
        obs = system.obs
        assert obs.profiler is not None
        kernel.run(system.submit(1, _write_x))
        kernel.run(until=kernel.now + 50)
        system.stop()
        profiler = obs.profiler
        assert profiler.total_events == kernel.events_processed
        assert profiler.total_cpu_s == pytest.approx(
            profiler.dispatch_wall_s, rel=0.01
        )
        # A replicated write touches at least the network and the TM.
        assert "net" in profiler.cpu_s
        assert "tm" in profiler.cpu_s

    def test_recovery_timeline_embeds_profile(self):
        from repro.harness.runner import build_traced_scheme
        from repro.obs.report import recovery_timeline, render_recovery_timeline

        kernel, system = build_traced_scheme(
            "rowaa", 1, 3, {"X": 0}, profile=True
        )
        obs = system.obs
        kernel.run(system.submit(1, _write_x))
        system.stop()
        report = recovery_timeline(system)
        assert report["profile"]["total_events"] > 0
        assert "host-CPU profile" in render_recovery_timeline(report)

    def test_attach_profiler_helper(self):
        from repro.harness.runner import build_traced_scheme

        kernel, system = build_traced_scheme("rowaa", 1, 3, {"X": 0})
        obs = system.obs
        assert obs.profiler is None
        profiler = attach_profiler(system)
        assert obs.profiler is profiler
        assert profiler._on_dispatch in kernel.probes.dispatch_begin


class TestSimTimeFold:
    def _recorder(self):
        kernel = Kernel(seed=0)
        return kernel, SpanRecorder(kernel, enabled=True)

    def test_nested_children_get_exclusive_time(self):
        kernel, recorder = self._recorder()
        root = recorder.start("txn:T1", "user", 1)
        kernel._now = 2.0
        child = recorder.start("rpc:write", "rpc", 1, parent=root.span_id)
        kernel._now = 6.0
        recorder.finish(child)
        kernel._now = 10.0
        recorder.finish(root)
        folded = folded_stacks(recorder)
        assert folded == {("user",): 6.0, ("user", "rpc"): 4.0}

    def test_child_clipped_to_parent_window(self):
        kernel, recorder = self._recorder()
        root = recorder.start("refresh:X1", "copier_refresh", 1)
        kernel._now = 4.0
        child = recorder.start("serve:read", "serve", 2, parent=root.span_id)
        kernel._now = 6.0
        recorder.finish(root)  # parent ends before the child
        kernel._now = 9.0
        recorder.finish(child)
        folded = folded_stacks(recorder)
        # The escaping tail [6, 9] is clipped: per-root totals must
        # equal the root duration, not exceed it.
        assert sum(folded.values()) == pytest.approx(6.0)
        assert folded[("refresh", "serve")] == pytest.approx(2.0)

    def test_overlapping_siblings_latest_wins(self):
        kernel, recorder = self._recorder()
        root = recorder.start("txn:T1", "user", 1)
        first = recorder.start("lock-wait:X1", "lock", 1, parent=root.span_id)
        kernel._now = 2.0
        second = recorder.start("rpc:write", "rpc", 1, parent=root.span_id)
        kernel._now = 5.0
        recorder.finish(first)
        recorder.finish(second)
        kernel._now = 8.0
        recorder.finish(root)
        folded = folded_stacks(recorder)
        # [0,2) lock-wait alone, [2,5) rpc (latest started) wins, [5,8)
        # the root's own tail.
        assert folded[("user", "lock-wait")] == pytest.approx(2.0)
        assert folded[("user", "rpc")] == pytest.approx(3.0)
        assert folded[("user",)] == pytest.approx(3.0)

    def test_order_independence(self):
        kernel, recorder = self._recorder()
        root = recorder.start("txn:T1", "user", 1)
        kernel._now = 1.0
        child = recorder.start("rpc:w", "rpc", 1, parent=root.span_id)
        kernel._now = 3.0
        recorder.finish(child)
        kernel._now = 4.0
        recorder.finish(root)
        expected = folded_stacks(recorder)
        recorder.spans.reverse()
        assert folded_stacks(recorder) == expected

    def test_truncated_spans_still_counted(self):
        kernel, recorder = self._recorder()
        root = recorder.start("txn:T9", "user", 1)
        kernel._now = 3.0
        recorder.start("rpc:w", "rpc", 1, parent=root.span_id)
        kernel._now = 7.0
        recorder.finish_open()  # horizon cut closes both
        folded = folded_stacks(recorder)
        assert sum(folded.values()) == pytest.approx(7.0)

    def test_frame_labels(self):
        kernel, recorder = self._recorder()
        user = recorder.start("txn:T1", "user", 1)
        control = recorder.start("txn:R1.1", "control", 1)
        refresh = recorder.start("refresh:X3", "copier_refresh", 1)
        plain = recorder.start("recover", "recovery", 1)
        assert frame_label(user) == "user"
        assert frame_label(control) == "control"
        assert frame_label(refresh) == "refresh"
        assert frame_label(plain) == "recover"

    def test_speedscope_document_is_consistent(self):
        kernel, recorder = self._recorder()
        root = recorder.start("txn:T1", "user", 1)
        kernel._now = 2.0
        child = recorder.start("rpc:w", "rpc", 1, parent=root.span_id)
        kernel._now = 5.0
        recorder.finish(child)
        recorder.finish(root)
        doc = speedscope_document(recorder, label="test")
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert len(profile["samples"]) == len(profile["weights"])
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
        assert profile["endValue"] == pytest.approx(5.0)  # root duration
        n_frames = len(doc["shared"]["frames"])
        assert all(
            0 <= i < n_frames for s in profile["samples"] for i in s
        )


def _sampled_inner():
    return sum(range(2000))


def _sampled_outer():
    return [_sampled_inner() for _ in range(20)]


class TestStackSampler:
    def test_folded_host_stacks(self):
        sampler = StackSampler()
        sampler.start()
        try:
            _sampled_outer()
        finally:
            sampler.stop()
        folded = sampler.folded()
        assert folded
        flat = {frame for stack in folded for frame in stack}
        assert any("_sampled_inner" in frame for frame in flat)
        assert sampler.top(3)  # ranked, non-empty
