"""The paper's claims are the experiments' own gate: ``repro eN`` /
``repro all`` check each module's ``claims(table)`` on the table they
print, print one line per claim, and exit 1 when any fails."""

import contextlib
import copy
import io
import pathlib
import re

import pytest

from repro import cli
from repro.core.nominal import db_item_filter
from repro.harness import parallel
from repro.harness.experiments import e5_identification, e8_serializability
from repro.harness.runner import EXPERIMENTS, build_scheme, experiment_module
from repro.histories.recorder import OpType

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def small_grid():
    """``repro all --scale small --seed 3``: exit code, stdout, its tables."""
    tables, run_grid, out = {}, parallel.run_grid, io.StringIO()

    def keep(specs, jobs):
        tables.update(run_grid(specs, jobs=jobs))
        return tables

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(parallel, "run_grid", keep)
        code = cli.main(["all", "--scale", "small", "--seed", "3", "--jobs", "2"])
    return code, out.getvalue(), tables


def test_every_experiment_checks_three_claims_and_all_hold(small_grid):
    code, printed, tables = small_grid
    assert code == 0 and list(tables) == list(EXPERIMENTS)
    assert {claim_id.split(".")[0] for claim_id, *_ in DOCTORED} == set(tables)
    for eid, table in tables.items():
        checked = experiment_module(eid).claims(table)
        assert len(checked) >= 3, eid
        for claim in checked:
            assert claim.id.startswith(f"{eid}.") and claim.holds, claim.render()
            assert claim.render() in printed.splitlines()


#: (the one claim a doctored small table fails, the row, what it is set
#: to). E8's 1SR and Theorem-3 claims get one per scheduler.
DOCTORED = [
    ("e1.rowa-collapses", dict(scheme="rowa", failed=1), dict(write_availability=0.9)),
    ("e2.rowaa-flat", dict(scheme="rowaa", missed_updates=12), dict(t_operational=19)),
    ("e3.messages", dict(scheme="rowaa", sites=3), dict(msgs_per_commit=11.0)),
    ("e4.eager-drains", dict(mode="both"), dict(drain_time=None)),
    ("e5.precise-marks", dict(policy="fail-locks", updated_fraction=0.25), dict(marked=4)),
    ("e6.crash-retries", dict(scenario="crash-during-t1"), dict(mean_type1_attempts=1.0)),
    ("e7.faillocks-flat", dict(scheme="rowaa-faillocks", items=16), dict(remote_messages=50)),
    ("e8.rowaa-1sr", dict(scheme="rowaa"), dict(one_sr_ok=1)),
    ("e8.rowaa-theorem3", dict(scheme="rowaa"), dict(theorem3_ok=1)),
    ("e8.rowaa-to-1sr", dict(scheme="rowaa-to"), dict(one_sr_ok=1)),
    ("e8.rowaa-to-theorem3", dict(scheme="rowaa-to"), dict(theorem3_ok=1)),
    ("e8.naive-violates", dict(scheme="naive"), dict(one_sr_ok=2)),
    ("e9.fewer-bytes", dict(mode="log_ship", missed=4, truncated=False), dict(net_bytes=6000)),
    ("e10.async-acks-sooner", dict(mode="async_quorum"), dict(ack_p50=10)),
    ("e11.mvcc-serves-recovering", dict(variant="mvcc"), dict(ro_recovering=0)),
]


@pytest.mark.parametrize("claim_id, match, values", DOCTORED, ids=[c[0] for c in DOCTORED])
def test_a_doctored_table_fails_exactly_its_claim(small_grid, claim_id, match, values):
    eid = claim_id.split(".")[0]
    table = copy.deepcopy(small_grid[2][eid])
    (row,) = table.where(**match)
    row.update(values)
    assert [c.id for c in experiment_module(eid).claims(table) if not c.holds] == [claim_id]


def test_a_failing_claim_fails_the_run(monkeypatch, capsys):
    assemble = e5_identification.assemble

    def doctored(cells, results, **params):
        table = assemble(cells, results, **params)
        table.where(policy="fail-locks", updated_fraction=0.25)[0]["marked"] = 4
        return table

    monkeypatch.setattr(e5_identification, "assemble", doctored)
    assert cli.main(["e5", "--scale", "small", "--seed", "3"]) == 1
    out, err = capsys.readouterr()
    assert "claim e5.precise-marks (§5) FAILS" in out and "e5.precise-marks" in err


def test_experiments_md_lists_every_claim_verbatim(small_grid):
    listed = re.findall(r"^- `(e\d+\.[\w-]+)` \((.+?)\): (.+)$", EXPERIMENTS_MD.read_text(), re.M)
    assert listed == [
        (claim.id, claim.section, claim.statement)
        for eid, table in small_grid[2].items()
        for claim in experiment_module(eid).claims(table)
    ]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 18")
def test_e8_rowaa_to_small_seed_28_trial_loses_no_update():
    """The trial behind small seed 28's failing ``e8.rowaa-to-1sr``: two
    committed transactions read an item from the same writer and both
    write it, which no one-copy serial order explains."""
    _kernel, system, result = e8_serializability.scenario(
        build_scheme, 221733, "rowaa-to", 3, 8, 400.0, 250, 80, 5, 800.0
    )
    read_from, writers = {}, {}  # (item, version read) -> who then wrote it
    for op in system.recorder.committed_ops():
        if op.kind != "user" or not db_item_filter(op.item):
            continue
        if op.op is OpType.READ:
            read_from.setdefault((op.txn_id, op.item), op.version_seq)
        elif op.version_seq == op.txn_seq and (op.txn_id, op.item) in read_from:
            writers.setdefault((op.item, read_from[op.txn_id, op.item]), set()).add(op.txn_id)
    lost = {source: txns for source, txns in writers.items() if len(txns) > 1}
    assert not lost, lost
    assert result["one_sr"]
