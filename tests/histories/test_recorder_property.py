"""Property test: the column recorder against the list-of-``Op`` recorder.

:class:`HistoryRecorder` keeps one row of typed columns per op and the
per-transaction facts once per transaction. Driven by the same random
sequence of ``record_read`` / ``record_write`` / ``mark_*`` calls — copier
writes, control and ``NS[k]`` items, many sites and items, sequence
numbers up to the column's limit, outcomes before, after and without
ops — it must answer every query exactly as a recorder that keeps an
``Op`` per op does: ``ops``, ``committed_ops()``, ``writer_of_seq``,
``kinds``, the outcome sets and the §4 checks. A value no column can hold
raises :class:`UnrecordableOp` and leaves the log as it was.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.nominal import db_item_filter
from repro.histories import HistoryRecorder, Op, OpType, check_one_sr, check_theorem3
from repro.histories.recorder import INITIAL_TXN, UnrecordableOp

MAX_U32 = 2**32 - 1
PREFIX = {"user": "T", "control": "C", "copier": "P"}


class ListRecorder:
    """The reference: one ``Op`` named tuple per op, as the log was kept
    before it became columns."""

    def __init__(self):
        self.ops, self.committed, self.aborted = [], set(), set()
        self.kinds = {INITIAL_TXN: "user"}
        self._writers = {0: INITIAL_TXN}

    def record_read(self, time, txn_id, txn_seq, kind, item, site, *version):
        self.kinds[txn_id] = kind
        self.ops.append(Op(len(self.ops), time, txn_id, txn_seq, kind, OpType.READ,
                           item, site, *version))

    def record_write(self, time, txn_id, txn_seq, kind, item, site, *version):
        self.kinds[txn_id] = kind
        self.ops.append(Op(len(self.ops), time, txn_id, txn_seq, kind, OpType.WRITE,
                           item, site, *version))
        if version[0] == txn_seq:
            self._writers[txn_seq] = txn_id

    def mark_committed(self, txn_id):
        self.committed.add(txn_id)

    def mark_aborted(self, txn_id):
        self.aborted.add(txn_id)

    def writers(self):
        return self._writers

    def writer_of_seq(self, version_seq):
        return self._writers[version_seq]

    def committed_ops(self):
        return [op for op in self.ops if op.txn_id in self.committed]


@st.composite
def histories(draw):
    """A call sequence: transactions of unique seq (as ``Transaction.seq``
    is) and fixed kind, each op by one of them at one of up to 300 sites."""
    n_txns = draw(st.integers(1, 12))
    seqs = draw(st.lists(st.integers(1, MAX_U32), min_size=n_txns, max_size=n_txns,
                         unique=True))
    txns = []
    for seq in seqs:
        kind = draw(st.sampled_from(["user", "user", "control", "copier"]))
        txns.append((f"{PREFIX[kind]}{seq}@{draw(st.integers(1, 300))}", seq, kind))
    items = [f"X{index}" for index in range(draw(st.integers(1, 40)))]
    items += [f"NS[{site}]" for site in range(1, draw(st.integers(1, 5)))]
    calls = []
    for _ in range(draw(st.integers(0, 60))):
        txn_id, seq, kind = draw(st.sampled_from(txns))
        action = draw(st.sampled_from(["read", "write", "write", "committed", "aborted"]))
        if action in ("committed", "aborted"):
            calls.append((f"mark_{action}", txn_id))
            continue
        # A copier (or a reader) carries another writer's version; an
        # original write carries its own.
        version_seq = draw(st.sampled_from([0, seq] + seqs))
        version = (version_seq, draw(st.floats(0, 1e6)), draw(st.integers(0, MAX_U32)))
        site = draw(st.integers(0, 2**16 - 1))
        time = draw(st.floats(0, 1e6))
        calls.append((f"record_{action}", time, txn_id, seq, kind,
                      draw(st.sampled_from(items)), site, *version))
    return calls


def outcome(call):
    """``call()``'s value, or the type of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(histories())
def test_columns_answer_as_the_op_list_does(calls):
    recorder, reference = HistoryRecorder(), ListRecorder()
    for method, *args in calls:
        getattr(recorder, method)(*args)
        getattr(reference, method)(*args)

    assert recorder.ops == reference.ops
    assert list(recorder.committed_ops()) == reference.committed_ops()
    assert recorder.kinds == reference.kinds
    assert recorder.committed == reference.committed
    assert recorder.aborted == reference.aborted
    seqs = {0, MAX_U32} | {op.version_seq for op in reference.ops}
    for seq in seqs:
        expected = reference.writers().get(seq, KeyError)
        assert outcome(lambda: recorder.writer_of_seq(seq)) == expected
    for check in (
        check_theorem3,
        check_one_sr,
        lambda history: check_one_sr(history, item_filter=db_item_filter),
    ):
        assert outcome(lambda: check(recorder)) == outcome(lambda: check(reference))


@pytest.mark.parametrize(
    "call",
    [
        ("record_read", 1.0, "T1@1", 1, "user", "X", 1, -1),  # version seq < 0
        ("record_read", 1.0, "T1@1", 1, "user", "X", 1, 2**32),
        ("record_write", 1.0, "T1@1", 1, "user", "X", 1, 1, 1.0, 2**32),  # commit
        ("record_write", 1.0, "T1@1", 1, "user", "X", 2**16, 1),  # site
        ("record_read", 1.0, "T1@1", 1, "user", "X", 1, 1.5),  # not an int
        ("record_read", 1.0, "T9@1", 2**32, "user", "X", 1, 0),  # txn seq
        ("record_read", 1.0, "T9@1", 9, "bogus", "X", 1, 0),  # kind
        ("record_read", 1.0, "T1@1", 7, "user", "X", 1, 0),  # seq changes
        ("record_read", 1.0, "T1@1", 1, "copier", "X", 1, 0),  # kind changes
    ],
)
def test_a_value_no_column_holds_is_refused_not_wrapped(call):
    recorder = HistoryRecorder()
    recorder.record_write(0.5, "T1@1", 1, "user", "X", 1, 1)
    recorder.mark_committed("T1@1")
    before = (recorder.ops, recorder.kinds, recorder.committed)
    method, *args = call
    with pytest.raises(UnrecordableOp):
        getattr(recorder, method)(*args)
    assert (recorder.ops, recorder.kinds, recorder.committed) == before
    recorder.record_read(2.0, "T1@1", 1, "user", "X", 1, MAX_U32, 0.0, MAX_U32)
    assert recorder.ops[-1].version_seq == MAX_U32  # the log still takes rows
