"""Tests for the command-line interface."""

from repro.cli import main
from repro.harness.runner import EXPERIMENTS, experiment_module


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


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
        assert hasattr(experiment_module(key), "run"), key


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
