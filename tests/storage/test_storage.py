"""Unit tests for stable storage, copy stores, and the catalog."""

import random

import pytest

from repro.storage import Catalog, CopyStore, StableStorage, Version


class TestStableStorage:
    def test_put_get(self):
        stable = StableStorage()
        stable.put("session", 3)
        assert stable.get("session") == 3

    def test_get_default(self):
        stable = StableStorage()
        assert stable.get("missing", 0) == 0

    def test_contains_and_delete(self):
        stable = StableStorage()
        stable.put("k", "v")
        assert "k" in stable
        stable.delete("k")
        assert "k" not in stable
        stable.delete("k")  # idempotent

    def test_write_counter(self):
        stable = StableStorage()
        stable.put("a", 1)
        stable.put("a", 2)
        assert stable.writes == 2


class TestVersion:
    def test_initial_is_smallest(self):
        assert Version.initial() < Version(0.0, 1) < Version(1.0, 0)

    def test_total_order(self):
        a, b = Version(1.0, 5), Version(1.0, 6)
        assert a < b
        assert max(a, b) == b


class TestCopyStore:
    def test_create_and_get(self):
        store = CopyStore(1)
        store.create("X", value=10)
        copy = store.get("X")
        assert copy.value == 10
        assert copy.version == Version.initial()
        assert not copy.unreadable

    def test_duplicate_create_rejected(self):
        store = CopyStore(1)
        store.create("X")
        with pytest.raises(KeyError):
            store.create("X")

    def test_missing_get_raises(self):
        store = CopyStore(1)
        with pytest.raises(KeyError):
            store.get("X")

    def test_apply_write_updates_and_clears_mark(self):
        store = CopyStore(1)
        store.create("X", value=0)
        store.mark_unreadable("X")
        store.apply_write("X", 42, Version(5.0, 7))
        copy = store.get("X")
        assert copy.value == 42
        assert copy.version == Version(5.0, 7)
        assert not copy.unreadable

    def test_mark_all_unreadable(self):
        store = CopyStore(1)
        for name in ("X", "Y", "Z"):
            store.create(name)
        store.mark_all_unreadable()
        assert sorted(store.unreadable_items()) == ["X", "Y", "Z"]

    def test_has(self):
        store = CopyStore(1)
        store.create("X")
        assert store.has("X")
        assert not store.has("Y")


class TestCatalog:
    def test_add_and_query(self):
        catalog = Catalog([1, 2, 3])
        catalog.add_item("X", [1, 3])
        assert catalog.sites_of("X") == (1, 3)
        assert "X" in catalog

    def test_items_at(self):
        catalog = Catalog([1, 2])
        catalog.add_item("X", [1])
        catalog.add_item("Y", [1, 2])
        assert sorted(catalog.items_at(1)) == ["X", "Y"]
        assert catalog.items_at(2) == ["Y"]

    def test_duplicate_item_rejected(self):
        catalog = Catalog([1])
        catalog.add_item("X", [1])
        with pytest.raises(ValueError):
            catalog.add_item("X", [1])

    def test_unknown_site_rejected(self):
        catalog = Catalog([1, 2])
        with pytest.raises(ValueError):
            catalog.add_item("X", [1, 9])

    def test_empty_placement_rejected(self):
        catalog = Catalog([1, 2])
        with pytest.raises(ValueError):
            catalog.add_item("X", [])

    def test_requires_sites(self):
        with pytest.raises(ValueError):
            Catalog([])

    def test_fully_replicated(self):
        catalog = Catalog.fully_replicated([1, 2, 3], ["A", "B"])
        assert catalog.sites_of("A") == (1, 2, 3)
        assert catalog.sites_of("B") == (1, 2, 3)

    def test_random_placement_replication_degree(self):
        rng = random.Random(0)
        items = [f"X{i}" for i in range(50)]
        catalog = Catalog.random_placement([1, 2, 3, 4, 5], items, replication=3, rng=rng)
        for item in items:
            assert len(catalog.sites_of(item)) == 3

    def test_random_placement_bad_replication(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            Catalog.random_placement([1, 2], ["X"], replication=3, rng=rng)
        with pytest.raises(ValueError):
            Catalog.random_placement([1, 2], ["X"], replication=0, rng=rng)

    def test_placement_deduplicates_and_sorts(self):
        catalog = Catalog([1, 2, 3])
        catalog.add_item("X", [3, 1, 3])
        assert catalog.sites_of("X") == (1, 3)
