"""Smoke tests: every experiment runs end to end at tiny scale.

These guard the experiment definitions (the full shape assertions live
in benchmarks/); tiny parameters keep them fast in the unit suite.
"""

from repro.harness.experiments import (
    e1_availability,
    e2_resume,
    e3_overhead,
    e4_copiers,
    e5_identification,
    e6_multifailure,
    e7_control_cost,
    e8_serializability,
    e9_catchup,
    e10_commit_modes,
    e11_snapshot_reads,
)


def test_e1_smoke():
    table = e1_availability.run(
        seed=1, n_sites=3, replication=2, n_items=4, max_failed=1,
        load_duration=100.0, schemes=("rowaa", "rowa"),
    )
    assert len(table.rows) == 4
    (row,) = table.where(scheme="rowaa", failed=0)
    assert row["read_availability"] >= 0.9


def test_e2_smoke():
    table = e2_resume.run(
        seed=1, n_items=4, missed_updates=(0, 4), schemes=("rowaa", "spooler")
    )
    assert len(table.rows) == 4
    assert all(row["t_operational"] is not None for row in table.rows)


def test_e3_smoke():
    table = e3_overhead.run(
        seed=1, site_counts=(3,), n_items=8, load_duration=150.0, repeats=1
    )
    assert len(table.rows) == 2
    assert all(row["committed"] > 0 for row in table.rows)


def test_e4_smoke():
    table = e4_copiers.run(
        seed=1, n_items=6, read_duration=150.0, modes=("eager", "none")
    )
    (eager,) = table.where(mode="eager")
    assert eager["drain_time"] is not None


def test_e5_smoke():
    table = e5_identification.run(
        seed=1, n_items=6, update_fractions=(0.5,),
        policies=("mark-all", "fail-locks"),
    )
    (mark_all,) = table.where(policy="mark-all")
    (fail_locks,) = table.where(policy="fail-locks")
    assert mark_all["marked"] == 6
    assert fail_locks["marked"] == 3


def test_e6_smoke():
    table = e6_multifailure.run(seed=1, trials=1, scenarios=("single",))
    (row,) = table.rows
    assert row["succeeded"] == row["recoveries"]


def test_e7_smoke():
    table = e7_control_cost.run(seed=1, item_counts=(4,), schemes=("rowaa",))
    (row,) = table.rows
    assert row["status_txns"] == 2


def test_e8_smoke():
    table = e8_serializability.run(
        seed=1, trials=1, duration=300.0, schemes=("rowaa",)
    )
    (row,) = table.rows
    assert row["theorem3_ok"] == 1


def test_e9_smoke():
    table = e9_catchup.run(seed=1, n_items=8, missed_updates=(4,))
    (ship,) = table.where(mode="log_ship", truncated=False)
    (copy,) = table.where(mode="item_copy", truncated=False)
    # Log shipping moves strictly fewer bytes for a short outage...
    assert ship["net_bytes"] < copy["net_bytes"]
    assert ship["fell_back"] == 0 and ship["shipped"] >= 4
    # ...and both transports end on the identical final state.
    assert ship["state"] == copy["state"]
    assert ship["t_fully_current"] is not None
    (trunc,) = table.where(mode="log_ship", truncated=True)
    assert trunc["fell_back"] == 1
    assert trunc["state"] == table.where(mode="item_copy", truncated=True)[0]["state"]


def test_e10_smoke():
    table = e10_commit_modes.run(seed=1, trials=1, n_items=16, duration=200.0)
    sync, quorum = table.rows  # sync baseline first
    assert (sync["mode"], quorum["mode"]) == ("sync_2pc", "async_quorum")
    for row in table.rows:
        assert row["committed"] > 0
        assert row["one_sr_ok"] == row["theorem3_ok"] == row["runs"] == 1
    # The fast path acks after one network round, the baseline after two.
    assert quorum["ack_p50"] < sync["ack_p50"]


def test_e11_smoke():
    table = e11_snapshot_reads.run(seed=1, trials=1, n_items=16, duration=200.0)
    locking, mvcc = table.rows  # locking baseline first
    assert (locking["variant"], mvcc["variant"]) == ("locking", "mvcc")
    for row in table.rows:
        assert row["ro_committed"] > 0 and row["rw_committed"] > 0
        assert row["one_sr_ok"] == row["theorem3_ok"] == row["runs"] == 1
    # Only the snapshot path serves reads from a provably stale site.
    assert locking["ro_recovering"] == 0
