"""The harness is one path: scenarios are probe-blind, probes compose
through the one builder and the kernel's one probe bus, and nothing is
left to tear down."""

import ast
import functools
import importlib
import inspect
import pathlib
import pstats

import pytest

from repro.audit import attach_auditor
from repro.baselines import build_rowaa_system
from repro.harness import experiments
from repro.harness.runner import (
    EXPERIMENTS,
    build_scheme,
    build_traced_scheme,
    experiment_module,
    run_traced,
    scenario_names,
    traced_scenario,
)
from repro.sanitize.fingerprint import alert_signature, fingerprint, system_state
from repro.sanitize.policy import ScheduleSpec
from repro.sim import Kernel
from repro.sim.probes import EVENTS, Probes

#: The probe keywords: what ``build_traced_scheme`` takes beyond
#: ``build_scheme``. Derived, so a new probe is guarded the day it lands.
PROBES = set(inspect.signature(build_traced_scheme).parameters) - set(
    inspect.signature(build_scheme).parameters
)


def test_probe_set_is_the_known_one():
    assert PROBES == {"audit", "sample", "profile", "schedule"}


def _experiment_tree(eid):
    directory = pathlib.Path(experiments.__file__).parent
    return ast.parse((directory / f"{EXPERIMENTS[eid]['module']}.py").read_text())


class TestScenariosAreProbeBlind:
    """Adding a probe touches runner.py (+ cli.py), never an experiment."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_signature_names_no_probe(self, name):
        world = traced_scenario(name).func  # the module's ``scenario``
        parameters = inspect.signature(world).parameters
        assert world.__name__ == "scenario"
        assert not PROBES & set(parameters), name
        assert list(parameters)[:2] == ["build", "seed"]

    @pytest.mark.parametrize("eid", EXPERIMENTS)
    def test_experiment_source_names_no_probe(self, eid):
        names = set()
        for node in ast.walk(_experiment_tree(eid)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.arg, ast.keyword)):
                names.add(node.arg)
        assert not PROBES & names, eid

    def test_registry_covers_every_experiment_module(self):
        directory = pathlib.Path(experiments.__file__).parent
        on_disk = {path.stem for path in directory.glob("e*.py")}
        assert on_disk == {spec["module"] for spec in EXPERIMENTS.values()}
        for eid in EXPERIMENTS:  # a table is never printed without its claims
            for name in ("plan", "assemble", "claims", "scenario"):
                assert callable(getattr(experiment_module(eid), name, None)), (eid, name)


class TestOneWorldPerExperiment:
    """The grid cell and the traced run of an experiment are one
    ``scenario(build, seed, **params)`` at two parameter sets. None of
    this can be asked of the parent commit: there each module wrote its
    world twice (``_one_cell``/``_one_trial`` and ``traced_scenario``)
    with no common signature to call."""

    #: E1 alone keeps two worlds (see ``e1_availability.scenario``): its
    #: trace is one mixed pool and then a recovery, its table separate
    #: read and write pools and no recovery — neither is the other at
    #: any parameter set, so one body would branch on its caller.
    TWO_WORLDS = {"e1": ["grid_scenario", "scenario"]}
    DRIVES = ("build", "ClientPool", "outage", "FailureSchedule.random_failures")

    @pytest.mark.parametrize("eid", EXPERIMENTS)
    def test_one_function_builds_and_drives(self, eid):
        functions = [
            node for node in _experiment_tree(eid).body
            if isinstance(node, ast.FunctionDef)
        ]
        assert "traced_scenario" not in {function.name for function in functions}
        worlds = self.TWO_WORLDS.get(eid, ["scenario"])
        taking_build = [
            function.name for function in functions
            if "build" in {arg.arg for arg in function.args.args}
        ]
        assert taking_build == worlds, eid
        driving = [
            function.name for function in functions
            if any(
                isinstance(node, ast.Call) and ast.unparse(node.func) in self.DRIVES
                for node in ast.walk(function)
            )
        ]
        assert driving == worlds, eid

    @pytest.mark.parametrize("name", scenario_names())
    def test_a_trace_set_binds_what_scenario_declares(self, name):
        """... all of it: the world has no trace value of its own to
        fall back on."""
        world = traced_scenario(name)  # a partial: the set is its keywords
        bound = set(world.keywords)
        parameters = inspect.signature(world.func).parameters
        declared = set(parameters) - {"build", "seed"}
        required = {
            key for key in declared
            if parameters[key].default is inspect.Parameter.empty
        }
        assert required <= bound <= declared, name

    @pytest.mark.parametrize("name", scenario_names())
    def test_looking_does_not_change_what_happens(self, name):
        """The same world under the plain builder (a grid cell's), the
        traced builder, and the traced builder with three probes on
        measures the same ``result`` — an observer that perturbs a run
        fails here by name."""
        world = traced_scenario(name)
        probed = functools.partial(
            build_traced_scheme, audit=True, profile=True, sample=True
        )
        plain = world(build_scheme, 1)[2]
        assert plain and world(build_traced_scheme, 1)[2] == plain
        assert world(probed, 1)[2] == plain


class TestProbesCompose:
    def test_three_probes_ride_one_run(self):
        audited = run_traced("e2", seed=1, audit=True)
        run = run_traced(
            "e2", seed=1, audit=True, sample=True, profile=True
        )
        assert run.obs.audit is not None
        assert run.obs.sampler is not None and run.obs.sampler.windows
        assert run.obs.profiler is not None and run.obs.profiler.total_events > 0
        # Sampler and profiler only observe: the audit verdict is the
        # audit-only run's.
        assert alert_signature(run.obs) == alert_signature(audited.obs)
        assert run.summary == audited.summary
        assert run.label == "e2@seed=1"

    def test_every_probe_rides_one_run(self):
        """Profiler + policy + auditor on one kernel. Once ``profile``
        with any ``schedule`` left the profiler with 0 events, silently.
        The auditor's watchdog adds kernel events of its own (so it
        shifts which ties exist); the profiler only observes, so taking
        it away must change nothing the others see."""
        schedule = ScheduleSpec("shuffle", salt=1)
        probes = dict(audit=True, profile=True, schedule=schedule)
        run = run_traced("e2", seed=1, **probes)
        profiler = run.obs.profiler
        assert profiler.total_events == run.kernel.events_processed > 0
        # Every observer's cost is billed, the policy's
        # (``repro.sanitize``) to ``obs``, and nothing is lost.
        report = profiler.report()
        top = [name for name, _cpu in report["subsystems"]["obs"]["top"]]
        assert any(name.startswith("repro.sanitize.") for name in top), top
        assert sum(row["cpu_s"] for row in report["subsystems"].values()) == (
            pytest.approx(pstats.Stats(profiler.profile).total_tt)
        )
        state = fingerprint(system_state(run.system))
        fewer = run_traced("e2", seed=1, **{**probes, "profile": False})
        assert fewer.obs.policy.decisions == run.obs.policy.decisions
        assert fingerprint(system_state(fewer.system)) == state
        assert alert_signature(fewer.obs) == alert_signature(run.obs)
        # The committed state is the schedule-only run's too (and its
        # decisions are the un-audited composed run's).
        perturbed = run_traced("e2", seed=1, schedule=schedule)
        assert fingerprint(system_state(perturbed.system)) == state
        unaudited = run_traced("e2", seed=1, **{**probes, "audit": False})
        assert unaudited.obs.policy.decisions == perturbed.obs.policy.decisions
        assert unaudited.obs.profiler.total_events == unaudited.kernel.events_processed


class TestProbesArePerKernel:
    """Observer state lives on its kernel's bus: no process-wide seam."""

    def test_a_detector_sees_only_its_own_kernel(self):
        """The detector here is the protocol auditor."""
        def write(ctx):
            yield from ctx.write("X0", 1)

        watched, other = (build_rowaa_system(Kernel(seed=0), 2, {"X0": 0})
                          for _ in range(2))
        auditor = attach_auditor(watched)
        # Attached last: under a process-wide seam this one would have
        # received every store's mutations, on both kernels.
        bystander = attach_auditor(build_rowaa_system(Kernel(seed=0), 2, {"X0": 0}))
        checks = bystander.checks
        for system in (watched, other):
            system.kernel.run(system.submit_with_retry(1, write, attempts=4))
            assert system.copy_value(2, "X0") == 1
        assert auditor.checks > 0
        assert not other.kernel.probes
        assert bystander.checks == checks

    def test_a_raising_scenario_leaves_nothing_behind(self):
        seen = []

        def exploding(build, seed):
            kernel, system = build("rowaa", seed, 2, {"X0": 0})
            seen.append((kernel, system.obs.audit))
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_traced(exploding, seed=0, audit=True)
        (kernel, auditor), = seen
        assert auditor._on_apply in kernel.probes.apply
        # The next kernel starts with an empty bus: there is no global
        # to clear.
        assert not Kernel(seed=0).probes


class TestOneMechanism:
    """A new observer touches its own module and (for a new event) the
    emitter — never a hook list, a kernel private or a global seam."""

    SRC = pathlib.Path(experiments.__file__).parents[2]

    def _trees(self, *packages):
        for package in packages or ("",):
            for path in sorted((self.SRC / package).rglob("*.py")):
                yield path, ast.parse(path.read_text())

    def test_no_observer_hook_list_attribute_remains(self):
        gone = {
            "commit_apply_hooks", "finish_hooks", "drain_hooks", "flush_hooks",
            "checkpoint_hooks", "gc_hooks",
        }
        for path, tree in self._trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    assert node.attr not in gone, (path, node.lineno)
                    assert not node.attr.endswith("_audit_hooks"), (path, node.lineno)

    def test_no_global_sanitizer_seam(self):
        assert not (self.SRC / "sanitize" / "hooks.py").exists()
        for path, tree in self._trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                    assert node.module != "repro.sanitize.hooks", path
                    assert not (node.module == "repro.sanitize" and "hooks" in names), path
                    assert not names & {"ACTIVE", "set_active"}, path

    def test_kernel_privates_stay_inside_sim(self):
        private = {name for name in Kernel.__slots__ if name.startswith("_")}
        private |= {"_prof", "_sanitize", "_tiebreak"}
        for path, tree in self._trees():
            if path.parent.name == "sim":
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in private:
                    owner = node.value  # ``kernel._x`` or ``<expr>.kernel._x``
                    name = getattr(owner, "attr", None) or getattr(owner, "id", "")
                    assert name != "kernel", (path, node.lineno, node.attr)

    def test_observers_append_to_no_hook_list(self):
        for path, tree in self._trees("audit", "obs", "sanitize"):
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Attribute)
                ):
                    assert not node.func.value.attr.endswith("_hooks"), (path, node.lineno)

    def test_event_set_is_closed(self):
        assert Probes.__slots__ is EVENTS and len(set(EVENTS)) == len(EVENTS)
        probes = Probes()
        with pytest.raises(AttributeError):
            probes.subscribe(no_such_event=print)
        with pytest.raises(AttributeError):
            probes.no_such_event
        with pytest.raises(AttributeError):
            probes.no_such_event = []

    def test_kernel_has_two_dispatch_loops(self):
        import repro.sim.kernel as kernel_module

        tree = ast.parse(pathlib.Path(kernel_module.__file__).read_text())
        methods = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert not methods & {
            "_run_profiled", "_run_sanitized", "_step_sanitized", "_run_until_event",
            "set_sanitizer", "set_tiebreak",
        }
        dispatching = [
            loop for loop in ast.walk(tree)
            if isinstance(loop, ast.While) and "_process" in ast.dump(loop)
        ]
        assert len(dispatching) == 2  # bare (in run) and probed (_drain)


class TestOneDataPath:
    """The data path is written once: one DM admission pipeline (a
    scheduler is three per-item decisions), one RPC serve path, one
    request-construction site per payload, one store mutation stream —
    and no knob or absence test that would let a twin grow back."""

    SRC = TestOneMechanism.SRC
    _trees = TestOneMechanism._trees

    def _tree(self, relative):
        return ast.parse((self.SRC / relative).read_text())

    @staticmethod
    def _calls(tree, name):
        """Call nodes whose callee, unparsed, ends with ``name``."""
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(name)
        ]

    @staticmethod
    def _functions(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def test_a_scheduler_is_three_decisions(self):
        tree = self._tree("txn/timestamp.py")
        defined = {function.name for function in self._functions(tree)}
        assert {"_read_copy", "_admit_write", "_install_write"} <= defined
        assert not {name for name in defined if name.startswith("_handle_")}
        assert "_apply_commit" not in defined
        for pipeline_step in (
            "_check_access", "_participation", "record_read", "record_write",
            "rpc.register",
        ):
            assert not self._calls(tree, pipeline_step), pipeline_step

    def test_dm_admission_is_walked_in_two_bodies(self):
        tree = self._tree("txn/data_manager.py")
        admitting = [
            function.name for function in self._functions(tree)
            if self._calls(function, "._check_access")
        ]
        assert admitting == ["_read_items", "_handle_write"]
        assert len(self._calls(tree, "lock_manager.acquire")) == 2  # S and X
        assert sum(f.name == "_apply_commit" for f in self._functions(tree)) == 1

    def test_rpc_has_one_serve_path(self):
        tree = self._tree("net/rpc.py")
        serving = [
            function.name for function in self._functions(tree)
            if any(isinstance(node, ast.Name) and node.id == "GeneratorType"
                   for node in ast.walk(function))
        ]
        assert serving == ["_start_server"]  # one place decides "is this a generator"
        spawning = [
            function.name for function in self._functions(tree)
            if self._calls(function, "kernel.process")
            or self._calls(function, "kernel.adopt")
            or self._calls(function, "Process")
        ]
        assert spawning == ["_start_server"]  # every server, and nothing else
        # ... which adopts the handler's own generator: no wrapper
        # generator rides every resume, and every serve ends in _served.
        # The inbox is drained by a kernel callback, not a process over
        # a queue: the module defines no generator at all.
        generators = [
            function.name for function in self._functions(tree)
            if any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   for node in ast.walk(function))
        ]
        assert generators == []
        for module in ("net/rpc.py", "net/network.py"):
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(self._tree(module))
                if isinstance(node, (ast.Name, ast.Attribute))
            } | {
                alias.name for node in ast.walk(self._tree(module))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            assert not {"Queue", "inspect", "repro.sim.queue"} & names, module
        ladders = [
            function.name for function in self._functions(tree)
            if self._calls(function, "RemoteError")
        ]
        assert ladders == ["_served"]

    def test_each_request_is_constructed_once(self):
        """Over every module: a strategy that hand-builds its own request
        (the quorum baseline did) misses what the one site sets."""
        for payload in ("WriteRequest", "SnapshotReadRequest", "ReadRequest",
                        "BatchReadRequest"):
            constructed = [
                path.relative_to(self.SRC).as_posix()
                for path, tree in self._trees()
                for call in self._calls(tree, payload)
                if ast.unparse(call.func).split(".")[-1] == payload
            ]
            assert constructed == ["txn/context.py"], payload

    def test_termination_is_one_loop(self):
        tree = self._tree("txn/data_manager.py")
        generators = [
            function.name for function in self._functions(tree)
            if self._calls(function, "._resolve")
        ]
        assert generators == ["_terminate"]
        spawned = {
            ast.unparse(call.args[0].func)
            for call in self._calls(tree, "site.spawn")
        }
        assert spawned == {"self._terminate"}  # under three process names

    def test_one_scheme_table(self):
        import repro.baselines
        import repro.harness.runner as runner

        builders = [
            (path.name, function.name)
            for path, tree in self._trees()
            for function in self._functions(tree)
            if function.name.startswith("build_") and function.name.endswith("_system")
        ]
        assert builders == [("systems.py", "build_system")]
        assert repro.baselines.build_rowaa_system.func is repro.baselines.build_system
        tables = [
            name for name, value in vars(runner).items()
            if isinstance(value, dict) and value and all(map(callable, value.values()))
        ]
        assert not tables
        assert sorted(repro.baselines.SCHEMES) == [
            "directories", "naive", "quorum", "rowa", "rowaa", "spooler",
        ]

    def test_the_wal_is_never_tested_for_absence(self):
        for path, tree in self._trees():
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                    continue
                if not isinstance(node.ops[0], (ast.Is, ast.IsNot)):
                    continue
                if ast.unparse(node.comparators[0]) != "None":
                    continue
                subject = ast.unparse(node.left)
                assert subject != "wal" and not subject.endswith(".wal"), (
                    path, node.lineno,
                )

    def test_deleted_knobs_and_seams_stay_deleted(self):
        import dataclasses

        from repro.cli import build_parser
        from repro.core.config import RowaaConfig
        from repro.histories.recorder import HistoryRecorder
        from repro.net.network import Network
        from repro.net.rpc import RpcNode
        from repro.obs.metrics import MetricsRegistry
        from repro.sim import Timeout
        from repro.storage.copies import CopyStore
        from repro.system import DatabaseSystem
        from repro.txn import LockManager, TxnConfig
        from repro.wal import ShipReply, WalConfig
        from repro.wal.records import LogRecord
        from repro.workload import ClientStats

        assert "enabled" not in {f.name for f in dataclasses.fields(WalConfig)}
        assert "batch_ns_read" not in {f.name for f in dataclasses.fields(RowaaConfig)}
        assert "batch_kinds" not in RpcNode.__slots__
        assert {"journal", "version_hooks"}.isdisjoint(vars(CopyStore(1)))
        gone = {
            "batch_ns_read", "batch_kinds", "journal", "version_hooks",
            # PR 20: reached by no traffic, described by no paper section.
            "lock_wait_timeout", "wait_timeout", "read_preference",
            "ReadPreference", "OpenLoopClient", "ro_availability", "AllOf", "AnyOf",
            "Gauge", "gauge", "bench_out", "CellTiming", "write_grid_trajectory",
            "children_of", "spans_of_category", "oldest_pin", "lint_paths",
            "SCHEME_BUILDERS", "_orphan_watch", "_indoubt_watch", "_resolve_fast",
            "_write_to", "_write_program", "read_quorum_of", "write_quorum_of",
            # PR 24: the second copy of each experiment's world, and the
            # lint baseline that grandfathered nothing.
            "_one_run", "_run_outage", "_caught_up_time", "_summarise", "_verdict",
            "baseline_key", "update_baseline", "BaselineError", "baseline_mod",
            # The RPC inbox's dispatcher process and the queue calls only
            # it made.
            "_dispatcher", "get_nowait", "cancel_waiters",
            # Set only by the ablations and subset runs the claims replaced.
            "copier_concurrency", "stats_to_rejections", "run_table", "replay_cost",
            "truncated_cell",
            # Reached by no claim, benchmark workload or example: the §6
            # partition-merge prototype and its gate, the total-failure
            # operator bootstrap, the wait-for-copier read and session
            # number recycling.
            "partition_mode", "partition_config", "partition_services", "user_frozen",
            "cold_start", "session_modulus", "unreadable_policy", "unreadable_wait",
            "unreadable_wait_attempts", "_wait_for_copier",
            # replint rules a run sees better (the hash-seed gate,
            # sim.ns_per_event), and the advisory tier only REP006 used.
            "HOT_PATH_FILES", "Severity",
            # Options every caller left at one value, now constants of
            # the module that reads them: 14 TxnConfig/RowaaConfig
            # fields, AuditConfig's 5 budgets, and the parameters that
            # duplicated their defaults.
            "deadlock_interval", "decision_timeout", "indoubt_retry",
            "max_read_attempts", "drain_retries", "drain_retry_delay",
            "ro_staleness_floor", "mvcc_gc_period", "copier_retry_delay",
            "recovery_probe_timeout", "recovery_retry_delay", "recovery_max_attempts",
            "type2_verify_ping", "post_announce_settle", "AuditConfig",
            "watchdog_interval", "drain_stall_budget", "copier_stall_budget",
            "twopc_budget", "drain_budget", "verify_ping_timeout", "floor_delay",
            "gc_period", "sample_period", "shrink", "no_shrink", "shrink_budget",
            "retry_delay", "max_attempts", "interval", "replay_cost_per_update",
            # Programs only CI called, now tier-1 tests: `repro lint`'s
            # rule lookup, JSON report and git plumbing, and the error
            # nothing raised.
            "get_rule", "rule_ids", "render_json", "changed_files", "SiteUnreachable",
            # The auditor's incremental twin of ``build_one_stg``, and
            # four exceptions nothing raised or caught.
            "OnlineOneStg", "SimTimeout", "HistoryError", "MalformedHistory",
            "NoOperationalSite",
            # Three copies of the §5 stale-copy table, now one
            # ``StaleTracker``; the two failure schedules only their
            # tests built; the auditor's per-tick 1SR bookkeeping.
            "FailLockPolicy", "MissingListPolicy", "SpoolTracker", "spools",
            "spooled_for", "ml_valid_since", "needs_post_announce_pass",
            "register_probe", "_prepare_database", "single_outage", "periodic",
            "_committed_seen",
            # The happens-before race detector, which gated no run, its
            # handle on the bundle and the RPC drain's strand class; the
            # TM's in-memory outcomes, which presumed abort answers.
            "RaceDetector", "RaceReport", "attach_detector", "sanitizer", "races",
            "DispatchStrand", "_outcomes",
            # The log-ship truncation gate and the redo log's bookkeeping
            # that only it read: a truncated peer streams what it holds.
            "truncated_commit_by_item", "truncated_max_commit", "_summary",
            "_summaries", "ship_fallback_truncated",
        }
        for module in ("repro.core.partition_merge", "repro.lint.rules.rep002_ordering",
                       "repro.lint.rules._setlike", "repro.lint.rules.rep006_slots",
                       "repro.lint.cli", "repro.lint.report", "repro.lint.registry",
                       "repro.wal.determinism", "repro.audit.onestg",
                       "repro.core.faillock", "repro.core.missinglist",
                       "repro.sanitize.hb"):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        assert not {"mvcc", "lock_wait_timeout"} & {
            f.name for f in dataclasses.fields(TxnConfig)
        }
        # Names that live on elsewhere (``TransactionManager.submit_ro``,
        # ``collections.Counter``, E8's ``committed_txns`` column …) are
        # checked on the class that lost them.
        import repro.lint.rule
        from repro.lint.findings import Finding

        for owner, name in (
            # ``RpcNode.register`` lives on; the rule registry's does not.
            (repro.lint.rule, "register"), (Finding, "to_json"),
            (DatabaseSystem, "submit_ro"), (MetricsRegistry, "counter"),
            (HistoryRecorder, "committed_txns"), (LogRecord, "wire_size"),
            (Network, "site_ids"), (Timeout, "cancel"), (Timeout, "cancelled"),
            (ClientStats, "merge"), (LockManager, "_expire"),
            (ShipReply, "truncated"),
        ):
            assert not hasattr(owner, name), (owner, name)
        for flag in ("--bench-out", "--baseline", "--update-baseline",
                     "--no-shrink", "--shrink-budget",
                     "--json", "--path", "--rules", "--changed", "--races"):
            assert flag not in build_parser().format_help()
        # Parameter names that live on elsewhere, checked on the
        # signature that lost them.
        from repro.audit import ProtocolAuditor
        from repro.core.recovery import RecoveryManager
        from repro.obs.timeseries import WindowedSampler, attach_sampler
        from repro.sanitize.fuzz import run_schedule, schedfuzz
        from repro.sanitize.shrink import ddmin

        for function, parameter in (
            (RecoveryManager, "config"), (ProtocolAuditor, "config"),
            (attach_auditor, "config"), (WindowedSampler, "period"),
            (attach_sampler, "period"), (ddmin, "budget"),
            (build_traced_scheme, "races"), (schedfuzz, "races"),
            (run_schedule, "races"), (CopyStore, "probes"),
        ):
            assert parameter not in inspect.signature(function).parameters, function
        # The probe events only the race detector read.
        assert not {"access", "send", "join", "step_enter", "step_exit"} & set(
            Probes.__slots__
        )
        for text in ("quorum-wait", "quorum prepare round"):
            for path in sorted(self.SRC.rglob("*.py")):
                assert text not in path.read_text(), (path, text)
        for path, tree in self._trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    assert node.attr not in gone, (path, node.lineno)
                elif isinstance(node, (ast.arg, ast.keyword)):
                    assert node.arg not in gone, (path, node.lineno)
                elif isinstance(node, ast.Name):
                    assert node.id not in gone, (path, node.lineno)


class TestEveryOptionHasACaller:
    """The static half of "did we verify the traffic": every config field
    is passed by keyword somewhere in the traffic — an experiment or a
    benchmark workload — as a non-default literal or as an expression.
    A field that is not is a value with one use: a constant of the
    module that reads it. Examples show an option; they do not need it,
    so they do not count."""

    TRAFFIC = ("src/repro/harness", "benchmarks")

    def _passed_by_keyword(self):
        """(config, field) -> every keyword value the traffic passes."""
        root = pathlib.Path(experiments.__file__).parents[4]
        passed = {}
        for directory in self.TRAFFIC:
            for path in sorted((root / directory).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Call):
                        config = ast.unparse(node.func).split(".")[-1]
                        for keyword in node.keywords:
                            passed.setdefault((config, keyword.arg), []).append(
                                keyword.value
                            )
        return passed

    @staticmethod
    def _chooses(value, default):
        """True unless ``value`` is a literal equal to ``default``."""
        try:
            return ast.literal_eval(value) != default
        except ValueError:
            return True  # an expression: the caller computes a choice

    @staticmethod
    def _fields():
        import dataclasses

        from repro.core.config import RowaaConfig
        from repro.txn import TxnConfig
        from repro.wal import WalConfig

        return [
            (config.__name__, field)
            for config in (TxnConfig, RowaaConfig, WalConfig)
            for field in dataclasses.fields(config)
        ]

    def test_every_field_is_chosen_by_traffic(self):
        passed = self._passed_by_keyword()
        unchosen = [
            (config, field.name)
            for config, field in self._fields()
            if not any(
                self._chooses(value, field.default)
                for value in passed.get((config, field.name), ())
            )
        ]
        assert unchosen == []

    def test_design_options_table_is_the_field_list(self):
        """DESIGN.md's "Options" table: one row per field, in field
        order, each with the field's default."""
        root = pathlib.Path(experiments.__file__).parents[4]
        text = (root / "DESIGN.md").read_text()
        start = text.index("### Options")
        section = text[start:text.index("\n## ", start)]
        rows = [
            [cell.strip().strip("`") for cell in line.split("|")[1:3]]
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        assert rows == [
            [f"{config}.{field.name}", repr(field.default).replace("'", '"')]
            for config, field in self._fields()
        ]
