"""Unit tests for the transaction record."""

from repro.txn.transaction import Transaction, TxnKind, TxnStatus


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
