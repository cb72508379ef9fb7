"""Unit tests for the transaction record."""

from repro.txn.transaction import Transaction, TxnKind, TxnStatus, kind_of


def test_txn_id_names_kind_seq_and_home():
    assert Transaction(home_site=2, seq=7).txn_id == "T7@2"
    assert Transaction(home_site=1, kind=TxnKind.CONTROL, seq=8).txn_id == "C8@1"
    assert Transaction(home_site=3, kind=TxnKind.COPIER, seq=9).txn_id == "P9@3"


def test_txn_id_is_built_once_and_outlives_status_changes():
    txn = Transaction(home_site=1, seq=4)
    name = txn.txn_id
    txn.status = TxnStatus.COMMITTED
    assert txn.txn_id is name
    assert repr(txn) == "<T4@1 user committed>"


def test_kind_of_reads_the_kind_back_from_the_id():
    """A participation restored from the log knows its transaction by id
    alone; the history records its writes under the transaction's kind."""
    for kind in TxnKind:
        assert kind_of(Transaction(home_site=2, kind=kind, seq=5).txn_id) == kind.value
    assert kind_of("T7") == kind_of("X1") == "user"
