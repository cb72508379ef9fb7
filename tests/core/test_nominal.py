"""Unit tests for nominal-session-number item helpers."""

import pytest

from repro.core import is_ns_item, ns_item, ns_site
from repro.core.nominal import db_item_filter, unreadable_db_count
from repro.storage import CopyStore


def test_ns_item_roundtrip():
    for site_id in (1, 5, 42):
        assert ns_site(ns_item(site_id)) == site_id


def test_is_ns_item():
    assert is_ns_item("NS[3]")
    assert not is_ns_item("X")
    assert not is_ns_item("NS3")


def test_ns_site_rejects_other_items():
    with pytest.raises(ValueError):
        ns_site("X")


def test_db_item_filter():
    assert db_item_filter("X")
    assert not db_item_filter("NS[1]")


def test_unreadable_db_count_leaves_out_marked_ns_copies():
    store = CopyStore(1)
    site_ids = (1, 2, 3)
    for name in ["X", "Y", "Z"] + [ns_item(site_id) for site_id in site_ids]:
        store.create(name, 0)
    assert unreadable_db_count(store, site_ids) == 0
    store.mark_all_unreadable()
    assert store.unreadable_count() == 6
    assert unreadable_db_count(store, site_ids) == 3
    store.clear_unreadable("Y")
    store.clear_unreadable(ns_item(2))
    assert unreadable_db_count(store, site_ids) == sum(
        1 for item in store.unreadable_items() if not is_ns_item(item)
    ) == 2
