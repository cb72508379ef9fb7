"""Direct handler-level tests for the DataManager."""

import pytest

from repro.errors import (
    CopyUnreadable,
    DeadlockDetected,
    NotOperational,
    SessionMismatch,
    TimestampOrderViolation,
    TransactionError,
)
from repro.histories import HistoryRecorder
from repro.net import ConstantLatency, Network
from repro.sim import Kernel
from repro.site import Site, SiteStatus
from repro.storage.copies import Version
from repro.txn import DataManager, LockMode, TxnConfig
from repro.txn.payloads import (
    BatchReadRequest,
    CommitRequest,
    FinishRequest,
    OutcomeQuery,
    PrepareRequest,
    ReadRequest,
    WriteRequest,
)
from repro.txn.timestamp import TimestampDataManager


@pytest.fixture
def kernel():
    return Kernel(seed=23)


def make_rig(kernel, dm_class=DataManager, items=("X",)):
    """One operational site in session 1 holding ``items`` (values 10, 11, …)."""
    network = Network(kernel, latency=ConstantLatency(1.0))
    site = Site(kernel, network, 1)
    network.attach(2)  # a peer address for rpc sources
    recorder = HistoryRecorder()
    dm = dm_class(kernel, site, recorder, TxnConfig(rpc_timeout=10.0))
    site.power_on()
    site.become_operational()
    dm.actual_session = 1
    for number, item in enumerate(items):
        site.copies.create(item, value=10 + number)
    return kernel, site, dm, recorder


@pytest.fixture
def rig(kernel):
    return make_rig(kernel)


def drive(kernel, generator_or_value):
    """Run a handler (generator or plain value) to completion."""
    if hasattr(generator_or_value, "send"):
        return kernel.run(kernel.process(generator_or_value))
    return generator_or_value


def read_req(txn="T1@2", seq=1, **kwargs):
    defaults = dict(txn_id=txn, txn_seq=seq, kind="user", item="X", expected=1)
    defaults.update(kwargs)
    return ReadRequest(**defaults)


def write_req(txn="T1@2", seq=1, value=99, **kwargs):
    defaults = dict(txn_id=txn, txn_seq=seq, kind="user", item="X",
                    value=value, expected=1)
    defaults.update(kwargs)
    return WriteRequest(**defaults)


def test_per_operation_records_are_immutable():
    """Built tens of times per commit, these are named tuples rather than
    frozen dataclasses — and still refuse assignment."""
    from repro.histories.recorder import Op, OpType
    from repro.txn.data_manager import WriteIntent

    op = Op(0, 1.0, "T1@2", 1, "user", OpType.READ, "X", 1, 0)
    for record in (read_req(), write_req(), WriteIntent(99, None, (1,), ()), op):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    assert op.version_key == (0.0, 0, 0) and write_req().wire_size > read_req().wire_size


class TestSessionCheck:
    def test_matching_session_passes(self, rig):
        kernel, _site, dm, _rec = rig
        value, version = drive(kernel, dm._handle_read(read_req(), src=2))
        assert value == 10

    def test_mismatch_rejected(self, rig):
        kernel, _site, dm, _rec = rig
        with pytest.raises(SessionMismatch) as excinfo:
            drive(kernel, dm._handle_read(read_req(expected=7), src=2))
        assert excinfo.value.expected == 7
        assert excinfo.value.actual == 1
        assert dm.stats_session_rejections == 1

    def test_recovering_site_rejects_tagged_requests(self, rig):
        kernel, site, dm, _rec = rig
        site.status = SiteStatus.RECOVERING
        dm.actual_session = 0
        with pytest.raises(SessionMismatch):
            drive(kernel, dm._handle_read(read_req(expected=1), src=2))

    def test_untagged_request_needs_operational(self, rig):
        kernel, site, dm, _rec = rig
        site.status = SiteStatus.RECOVERING
        with pytest.raises(NotOperational):
            drive(kernel, dm._handle_read(read_req(expected=None), src=2))

    def test_privileged_bypasses_both_checks(self, rig):
        kernel, site, dm, _rec = rig
        site.status = SiteStatus.RECOVERING
        dm.actual_session = 0
        value, _v = drive(
            kernel,
            dm._handle_read(read_req(expected=5, privileged=True, kind="control"),
                            src=2),
        )
        assert value == 10


class TestReadsAndWrites:
    def test_unknown_item_rejected(self, rig):
        kernel, _site, dm, _rec = rig
        with pytest.raises(TransactionError):
            drive(kernel, dm._handle_read(read_req(item="NOPE"), src=2))

    def test_unreadable_copy_rejected_and_hook_fired(self, rig):
        kernel, site, dm, _rec = rig
        site.copies.mark_unreadable("X")
        fired = []
        dm.unreadable_read_hooks.append(fired.append)
        with pytest.raises(CopyUnreadable):
            drive(kernel, dm._handle_read(read_req(), src=2))
        assert fired == ["X"]
        # The rejected reader left no lock behind:
        assert dm.lock_manager.waiting_txns() == set()
        assert not dm.lock_manager.holds("T1@2", "X", LockMode.S)

    def test_peek_ignores_unreadable_and_records_nothing(self, rig):
        kernel, site, dm, rec = rig
        site.copies.mark_unreadable("X")
        value, version = drive(
            kernel, dm._handle_read(read_req(peek_unreadable=True), src=2)
        )
        assert value == 10
        assert rec.ops == []

    def test_read_your_own_buffered_write(self, rig):
        kernel, _site, dm, _rec = rig
        drive(kernel, dm._handle_write(write_req(value=77), src=2))
        value, _version = drive(kernel, dm._handle_read(read_req(), src=2))
        assert value == 77

    def test_write_buffers_until_commit(self, rig):
        kernel, site, dm, _rec = rig
        drive(kernel, dm._handle_write(write_req(value=77), src=2))
        assert site.copies.get("X").value == 10  # not applied yet
        dm._handle_prepare(PrepareRequest("T1@2", participants=(1,)), src=2)
        version = Version(5.0, 50, 1)
        dm._handle_commit(CommitRequest("T1@2", version), src=2)
        assert site.copies.get("X").value == 77
        assert site.copies.get("X").version == version

    def test_abort_discards_buffered_write(self, rig):
        kernel, site, dm, _rec = rig
        drive(kernel, dm._handle_write(write_req(value=77), src=2))
        dm._handle_finish(FinishRequest("T1@2"), src=2)
        assert site.copies.get("X").value == 10

    def test_straggler_op_after_decision_rejected(self, rig):
        kernel, _site, dm, _rec = rig
        drive(kernel, dm._handle_write(write_req(), src=2))
        dm._handle_finish(FinishRequest("T1@2"), src=2)
        with pytest.raises(TransactionError, match="already decided"):
            drive(kernel, dm._handle_read(read_req(), src=2))


class TestOutcomeQueries:
    def test_unknown_txn_is_unknown(self, rig):
        _kernel, _site, dm, _rec = rig
        assert dm._handle_outcome(OutcomeQuery("T9@2"), src=2) == ("unknown", None)

    def test_active_then_prepared_then_committed(self, rig):
        kernel, _site, dm, _rec = rig
        drive(kernel, dm._handle_write(write_req(), src=2))
        assert dm._handle_outcome(OutcomeQuery("T1@2"), src=2) == ("active", None)
        dm._handle_prepare(PrepareRequest("T1@2", participants=(1,)), src=2)
        assert dm._handle_outcome(OutcomeQuery("T1@2"), src=2) == ("prepared", None)
        version = Version(5.0, 51, 1)
        dm._handle_commit(CommitRequest("T1@2", version), src=2)
        status, got = dm._handle_outcome(OutcomeQuery("T1@2"), src=2)
        assert status == "committed"
        assert got == version

    def test_vote_no_for_unknown_prepare(self, rig):
        _kernel, _site, dm, _rec = rig
        assert dm._handle_prepare(PrepareRequest("T9@2", participants=(1,)),
                                  src=2) is False

    def test_duplicate_commit_is_idempotent(self, rig):
        kernel, site, dm, _rec = rig
        drive(kernel, dm._handle_write(write_req(value=5), src=2))
        version = Version(5.0, 52, 1)
        dm._handle_commit(CommitRequest("T1@2", version), src=2)
        dm._handle_commit(CommitRequest("T1@2", version), src=2)  # no-op
        assert site.copies.get("X").value == 5


class TestCrashReset:
    def test_crash_clears_everything_volatile(self, rig):
        kernel, site, dm, _rec = rig
        drive(kernel, dm._handle_write(write_req(), src=2))
        old_locks = dm.lock_manager
        site.crash()
        assert dm.actual_session == 0
        assert dm._participations == {}
        assert dm.lock_manager is not old_locks

    def test_restored_in_doubt_commit_superseded_by_a_copy_installs_nothing(self, rig):
        """A durably prepared write comes back in doubt after a restart; a
        copy moves past it before the outcome arrives. The commit then
        installs nothing and records no history write, and the newer
        version and its unreadable mark stay as they were."""
        _kernel, site, dm, recorder = rig
        prepared, newer = Version(5.0, 5, 0), Version(9.0, 9, 0)
        site.wal.log_prepare("T7@2", 7, 2, (1, 2), "X", 77, prepared, (1, 2), ())
        site.wal.checkpoint()  # the prepare is durable, no resolve follows
        site.crash()
        site.power_on()  # restore re-arms T7@2 in doubt
        assert dm._participations["T7@2"].restored
        site.copies.apply_write("X", 88, newer)  # a copier refresh past the prepare
        site.copies.mark_unreadable("X")
        dm._handle_commit(CommitRequest("T7@2", prepared), src=2)
        copy = site.copies.get("X")
        assert (copy.value, copy.version, copy.unreadable) == (88, newer, True)
        assert [op for op in recorder.ops if op.txn_id == "T7@2"] == []
        assert "T7@2" not in dm._participations
        assert dm._decided["T7@2"] == ("committed", prepared)


# -- a batch is the per-item sequence ------------------------------------------

ITEMS = ("X", "Y", "Z")


def _set_up_nothing(site, dm, kernel):
    pass


def _buffer_own_write(site, dm, kernel):
    drive(kernel, dm._handle_write(write_req(item="Y", value=77), src=2))


def _mark_unreadable(site, dm, kernel):
    site.copies.mark_unreadable("Y")


def _older_writer_holds(site, dm, kernel):
    """An older transaction has a write intent on Y: 2PL makes the reader
    wait on its X lock, TO rejects the reader ("older write pending")."""
    drive(kernel, dm._handle_write(write_req(txn="T0@2", seq=0, item="Y"), src=2))


def _abort_reader(dm):
    dm._handle_finish(FinishRequest("T1@2"), src=2)


def _grant_then_abort_reader(dm):
    """The blocker ends and the reader is aborted in one instant: the
    reader's lock was granted but its process has not resumed yet."""
    dm._handle_finish(FinishRequest("T0@2"), src=2)
    dm._handle_finish(FinishRequest("T1@2"), src=2)


#: name -> (set-up, items read, request fields, interference at t=1)
SCENARIOS = {
    "all-served": (_set_up_nothing, ITEMS, {}, None),
    "own-buffered-write": (_buffer_own_write, ITEMS, {}, None),
    "unreadable-mid-list": (_mark_unreadable, ITEMS, {}, None),
    "missing-copy": (_set_up_nothing, ("X", "NOPE", "Z"), {}, None),
    "session-mismatch": (_set_up_nothing, ITEMS, {"expected": 7}, None),
    "decided-while-waiting": (_older_writer_holds, ITEMS, {}, _abort_reader),
    "decided-after-grant": (_older_writer_holds, ITEMS, {}, _grant_then_abort_reader),
}


def _as_batch(dm, items, fields):
    request = BatchReadRequest(
        txn_id="T1@2", txn_seq=1, kind="user", items=tuple(items),
        **{"expected": 1, **fields},
    )
    return (yield from dm._handle_read_batch(request, src=2))


def _as_sequence(dm, items, fields):
    results = []
    for item in items:
        results.append(
            (yield from dm._handle_read(read_req(item=item, **fields), src=2))
        )
    return results


def _observe(dm_class, scenario, walk):
    """Run one walk of ``scenario`` on a fresh rig; return all it left."""
    set_up, items, fields, interfere = SCENARIOS[scenario]
    kernel, site, dm, recorder = make_rig(Kernel(seed=23), dm_class, ITEMS)
    fired = []
    dm.unreadable_read_hooks.append(fired.append)
    set_up(site, dm, kernel)
    proc = kernel.process(walk(dm, items, fields)).defuse()
    kernel.run(until=1)
    if interfere is not None:
        interfere(dm)
    kernel.run(until=2)
    assert proc.triggered, "the walk must have finished or failed by now"
    locks = dm.lock_manager
    return {
        "outcome": proc.value if proc.ok else (type(proc.exception), str(proc.exception)),
        "held": {txn: sorted(held) for txn, held in locks._held_by_txn.items()},
        "shared": [item for item in ITEMS if locks.holds("T1@2", item, LockMode.S)],
        "waiting": locks.waiting_txns(),
        "rts": getattr(dm, "_rts", None),
        "reads": [op for op in recorder.ops if op.txn_id == "T1@2"],
        "stats": {name: getattr(dm, name) for name in dir(dm) if name.startswith("stats_")},
        "unreadable_hook": fired,
    }


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("dm_class", [DataManager, TimestampDataManager])
def test_batch_read_is_the_per_item_sequence(dm_class, scenario):
    """``BatchReadRequest`` promises "semantically identical to one
    ``ReadRequest`` per item": same scheduler state, history, counters
    and the same rejection at the same item — under every scheduler."""
    batch = _observe(dm_class, scenario, _as_batch)
    sequence = _observe(dm_class, scenario, _as_sequence)
    assert batch == sequence
    two_pl = dm_class is DataManager
    served = [op.item for op in batch["reads"]]
    if scenario == "all-served":
        assert served == list(ITEMS)
        assert (batch["shared"] == list(ITEMS)) if two_pl else set(batch["rts"]) == set(ITEMS)
    elif scenario == "own-buffered-write":
        assert batch["outcome"][1][0] == 77 and served == ["X", "Z"]
    elif scenario == "unreadable-mid-list":
        assert batch["outcome"][0] is CopyUnreadable and served == ["X"]
        assert batch["unreadable_hook"] == ["Y"]
        assert batch["shared"] == (["X"] if two_pl else [])  # Y's S lock dropped
        assert batch["stats"]["stats_unreadable_rejections"] == 1
    elif scenario == "missing-copy":
        assert batch["outcome"][0] is TransactionError and served == ["X"]
    elif scenario == "session-mismatch":
        assert batch["outcome"][0] is SessionMismatch and served == []
        assert batch["stats"]["stats_session_rejections"] == 1
    elif scenario == "decided-while-waiting":
        assert batch["outcome"][0] is (DeadlockDetected if two_pl else TimestampOrderViolation)
        assert served == ["X"] and batch["held"].get("T1@2") is None
    elif two_pl:  # decided-after-grant: the per-item already-decided re-check
        assert "already decided" in batch["outcome"][1] and served == ["X", "Y"]
        assert batch["held"] == {}  # nothing acquired for the dead transaction
