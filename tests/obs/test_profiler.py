"""Unit tests for the continuous-profiling subsystem (repro.obs.profiler).

The two invariants that matter:

* **host view** — cProfile's exclusive time is charged to the subsystem
  that spent it (a callee's own module; a C builtin's caller), and the
  per-subsystem ``cpu_s`` conserve cProfile's total ``tottime``;
* **sim view** — the folded stacks charge every instant of a root
  span's window to exactly one root-to-leaf path, so per-root totals
  equal root durations whatever the tree shape.
"""

import gc
import pstats

import pytest

from repro.obs.profiler import (
    HostProfiler,
    attach_profiler,
    folded_stacks,
    frame_label,
    subsystem_of_module,
    subsystem_of_path,
)
from repro.obs.spans import SpanRecorder
from repro.sim.kernel import Kernel
from repro.txn.locks import LockManager, LockMode


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
        assert subsystem_of_module("repro.sanitize.fuzz") == "obs"
        assert subsystem_of_module("repro.sanitize.policy") == "obs"
        assert subsystem_of_module("repro.harness.runner") == "workload"
        assert subsystem_of_module("repro.workload") == "workload"
        assert subsystem_of_module("some.third.party") == "other"

    def test_path_resolution(self):
        assert subsystem_of_path("/x/src/repro/net/rpc.py") == "net"
        assert subsystem_of_path("/x/src/repro/txn/locks.py") == "locks"
        assert subsystem_of_path("C:\\x\\repro\\wal\\log.py") == "wal"
        assert subsystem_of_path("/somewhere/else.py") == "other"
        assert subsystem_of_path("~") == "other"  # a C builtin's pstats path


def _drain_timeouts(kernel, n=50):
    for index in range(n):
        kernel.timeout(index % 7)
    kernel.run()


def _profiled_kernel():
    kernel = Kernel(seed=0)
    profiler = HostProfiler()
    profiler.attach(kernel)
    return kernel, profiler


def _run_without_gc(kernel):
    """``kernel.run()`` with the cyclic GC off: a collection that lands
    inside a builtin is billed to that builtin's caller, which can put
    the builtin on top of a subsystem's ``top`` list."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel.run()
    finally:
        if was_enabled:
            gc.enable()


def _cpu(profiler):
    return {label: row["cpu_s"] for label, row in profiler.report()["subsystems"].items()}


def _lock_churn(locks, n=200):  # defined in tests/ => not a repro subsystem
    for _ in range(n):
        locks.acquire("T1", "X", LockMode.X)
        locks.release_all("T1")


#: A builtin-heavy function whose code claims to live in ``repro/wal``:
#: its builtins must be billed to ``wal``, not to the ``~`` pseudo-path.
_WAL_SOURCE = """
def builtin_heavy(data):
    for _ in range(20):
        sorted(data)
        sum(data)
"""
_namespace: dict = {}
exec(compile(_WAL_SOURCE, "/x/src/repro/wal/fake.py", "exec"), _namespace)
_builtin_heavy = _namespace["builtin_heavy"]


class TestHostProfiler:
    def test_bare_timeouts_are_kernel_work(self):
        kernel, profiler = _profiled_kernel()
        _drain_timeouts(kernel)
        assert profiler.total_events == kernel.events_processed == 50
        cpu = _cpu(profiler)
        # The loop's own probe (``obs``) is the only other biller.
        assert set(cpu) <= {"kernel", "obs"}
        assert max(cpu, key=cpu.get) == "kernel"

    def test_detach_restores_plain_loop(self):
        kernel, profiler = _profiled_kernel()
        _drain_timeouts(kernel, n=5)
        profiler.detach()
        _drain_timeouts(kernel, n=5)
        assert profiler.total_events == 5  # nothing after detach
        assert not kernel.probes

    def test_process_resume_labelled_by_generator_file(self):
        kernel, profiler = _profiled_kernel()

        def ticker():  # defined in tests/ => not a repro subsystem
            for _ in range(3):
                yield kernel.timeout(1.0)

        kernel.run(kernel.process(ticker()))
        assert "other" in _cpu(profiler)
        assert profiler.total_events == kernel.events_processed

    def test_callback_labelled_by_function_module(self):
        from repro.harness.runner import scenario_names

        kernel, profiler = _profiled_kernel()
        for index in range(4):
            kernel.schedule_callback(float(index), scenario_names)
        kernel.run()
        assert profiler.report()["subsystems"]["workload"]["calls"] >= 4

    def test_callee_time_goes_to_the_callee_subsystem(self):
        """The callback is a test function, but the lock table does the
        work: it is ``locks`` that pays, not ``other``."""
        kernel, profiler = _profiled_kernel()
        kernel.schedule_callback(1.0, _lock_churn, LockManager(kernel, site_id=1))
        _run_without_gc(kernel)
        shares = profiler.shares()
        assert shares["locks"] > 0.5
        assert shares["locks"] > shares.get("other", 0.0)
        top = profiler.report()["subsystems"]["locks"]["top"]
        assert top[0][0].startswith("repro.txn.locks.")

    def test_builtins_are_charged_to_their_caller(self):
        """A builtin bills its caller's subsystem; one the drain loop
        calls directly has no profiled caller and bills ``kernel``."""
        data = list(range(2000, 0, -1))
        kernel, profiler = _profiled_kernel()
        kernel.schedule_callback(1.0, _builtin_heavy, data)
        kernel.run()
        wal = profiler.report()["subsystems"]["wal"]
        assert "<built-in method builtins.sorted>" in dict(wal["top"])
        assert profiler.shares()["wal"] > 0.5
        assert "other" not in profiler.shares()

        # Zero delay: the entry is ``(sorted, args)`` on the now-tier,
        # called by the drain loop itself, with no Callback in between.
        kernel, profiler = _profiled_kernel()
        kernel.schedule_callback(0.0, sorted, data)
        kernel.run()
        kernel_row = profiler.report()["subsystems"]["kernel"]
        assert "<built-in method builtins.sorted>" in dict(kernel_row["top"])
        assert "other" not in profiler.shares()

    def test_cpu_conserves_cprofile_total(self):
        """Every second of pstats ``tottime`` lands in exactly one row —
        caller-less builtins included."""
        kernel, profiler = _profiled_kernel()
        kernel.schedule_callback(0.0, sorted, list(range(5000)))
        kernel.schedule_callback(2.0, _builtin_heavy, list(range(500)))
        kernel.schedule_callback(3.0, _lock_churn, LockManager(kernel, site_id=1))
        _drain_timeouts(kernel)
        total = sum(_cpu(profiler).values())
        assert total == pytest.approx(pstats.Stats(profiler.profile).total_tt)
        assert total == pytest.approx(profiler.report()["total_cpu_s"])

    def test_single_step_is_profiled(self):
        kernel, profiler = _profiled_kernel()
        kernel.timeout(1.0)
        kernel.step()
        assert profiler.total_events == 1
        assert profiler.report()["total_cpu_s"] > 0.0

    def test_report_shares_and_metrics_shape(self):
        kernel, profiler = _profiled_kernel()
        _drain_timeouts(kernel)
        report = profiler.report()
        assert report["total_events"] == 50
        entry = report["subsystems"]["kernel"]
        assert entry["calls"] > 0
        assert entry["top"] and all(cpu > 0.0 for _name, cpu in entry["top"])
        assert sum(profiler.shares().values()) == pytest.approx(1.0)
        metrics = profiler.metrics()
        assert metrics["prof.total_events"] == 50
        assert set(metrics) == {
            "prof.total_cpu_s", "prof.total_events",
            "prof.cpu_s", "prof.share", "prof.calls",
        }

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
        # A replicated write touches the network, the TM, the lock
        # table and the log.
        cpu = _cpu(profiler)
        assert {"net", "tm", "locks", "wal"} <= set(cpu)

    def test_recovery_timeline_stays_host_free(self):
        """A profiled run's report equals an unprofiled one's: host
        CPU seconds would make it differ between two runs of one seed."""
        from repro.harness.runner import build_traced_scheme
        from repro.obs.report import recovery_timeline

        reports = []
        for profile in (True, False):
            kernel, system = build_traced_scheme(
                "rowaa", 1, 3, {"X": 0}, profile=profile
            )
            kernel.run(system.submit(1, _write_x))
            system.stop()
            assert (system.obs.profiler is not None) == profile
            reports.append(recovery_timeline(system))
        assert reports[0] == reports[1]

    def test_attach_profiler_helper(self):
        from repro.harness.runner import build_traced_scheme

        kernel, system = build_traced_scheme("rowaa", 1, 3, {"X": 0})
        obs = system.obs
        assert obs.profiler is None
        profiler = attach_profiler(system)
        assert obs.profiler is profiler
        assert profiler._on_loop_enter in kernel.probes.loop_enter
        assert profiler._on_loop_exit in kernel.probes.loop_exit
        assert not kernel.probes.dispatch_begin


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
