"""The harness is one path: scenarios are probe-blind, probes compose
through the one builder, and ``run_traced`` owns the teardown."""

import ast
import inspect
import pathlib

import pytest

from repro.harness import experiments
from repro.harness.runner import (
    EXPERIMENTS,
    build_scheme,
    build_traced_scheme,
    run_traced,
    scenario_names,
    traced_scenario,
)
from repro.sanitize import hooks
from repro.sanitize.fingerprint import alert_signature

#: The probe keywords: what ``build_traced_scheme`` takes beyond
#: ``build_scheme``. Derived, so a new probe is guarded the day it lands.
PROBES = set(inspect.signature(build_traced_scheme).parameters) - set(
    inspect.signature(build_scheme).parameters
)


def test_probe_set_is_the_known_one():
    assert PROBES == {"audit", "sample_period", "profile", "schedule", "races"}


class TestScenariosAreProbeBlind:
    """Adding a probe touches runner.py (+ cli.py), never an experiment."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_signature_names_no_probe(self, name):
        parameters = inspect.signature(traced_scenario(name)).parameters
        assert not PROBES & set(parameters), name
        assert list(parameters)[:2] == ["build", "seed"]

    @pytest.mark.parametrize("eid", EXPERIMENTS)
    def test_experiment_source_names_no_probe(self, eid):
        directory = pathlib.Path(experiments.__file__).parent
        tree = ast.parse((directory / f"{EXPERIMENTS[eid]['module']}.py").read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.arg, ast.keyword)):
                names.add(node.arg)
        assert not PROBES & names, eid

    def test_registry_covers_every_experiment_module(self):
        directory = pathlib.Path(experiments.__file__).parent
        on_disk = {path.stem for path in directory.glob("e*.py")}
        assert on_disk == {spec["module"] for spec in EXPERIMENTS.values()}


class TestProbesCompose:
    def test_three_probes_ride_one_run(self):
        audited = run_traced("e2", seed=1, audit=True)
        run = run_traced(
            "e2", seed=1, audit=True, sample_period=10.0, profile=True
        )
        assert run.obs.audit is not None
        assert run.obs.sampler is not None and run.obs.sampler.windows
        assert run.obs.profiler is not None and run.obs.profiler.total_events > 0
        # Sampler and profiler only observe: the audit verdict is the
        # audit-only run's.
        assert alert_signature(run.obs) == alert_signature(audited.obs)
        assert run.summary == audited.summary
        assert run.label == "e2@seed=1"


class TestRaceDetectorTeardown:
    def test_cleared_after_a_finished_run(self):
        run = run_traced("e2", seed=1, races=True)
        assert run.obs.sanitizer is not None
        assert hooks.ACTIVE is None

    def test_cleared_when_the_scenario_raises(self):
        def exploding(build, seed):
            build("rowaa", seed, 2, {"X0": 0})
            assert hooks.ACTIVE is not None  # the detector was live
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_traced(exploding, seed=0, races=True)
        assert hooks.ACTIVE is None
