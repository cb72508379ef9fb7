"""Tests for the command-line interface."""

from repro.cli import main
from repro.harness.runner import EXPERIMENTS


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_list_names_every_traced_scenario(capsys):
    """``e10sync``/``e11sync`` were discoverable only from the
    unknown-experiment message; each experiment's line carries its
    scenario names, baseline first."""
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(EXPERIMENTS)
    for line, spec in zip(lines, EXPERIMENTS.values()):
        assert line.endswith(f"[traced: {', '.join(spec['scenarios'])}]")
    assert lines[9].endswith("[traced: e10sync, e10]")
    assert lines[10].endswith("[traced: e11sync, e11]")


def test_unknown_scenario_lists_names_in_registry_order(capsys):
    """Sorted lexicographically the message read ``e1, e10, e10sync,
    e11, e11sync, e2, …``."""
    assert main(["run", "--experiment", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: unknown experiment 'nope'; choose from e1, e2, e3, ")
    assert err.rstrip().endswith("e9, e10sync, e10, e11sync, e11")


def test_unknown_experiment(capsys):
    assert main(["e99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_small_experiment(capsys):
    assert main(["e5", "--scale", "small", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "fail-locks" in out
    assert "marked" in out


def test_every_registered_experiment_has_both_scales():
    for key, spec in EXPERIMENTS.items():
        assert "small" in spec and "full" in spec, key


def test_every_subcommand_is_documented():
    import repro.cli

    usage = repro.cli.__doc__.split("Usage::")[1].split("Each experiment")[0]
    (positional,) = [
        action for action in repro.cli.build_parser()._actions
        if action.dest == "experiment"
    ]
    for name in repro.cli.SUBCOMMANDS:
        assert f"python -m repro {name}" in usage, name
        assert name in positional.help, name


def test_retired_bench_subcommand_is_an_unknown_name(capsys):
    assert main(["bench"]) == 2
    assert "unknown experiment 'bench'" in capsys.readouterr().err
