"""Unit tests for the multiversion store: chains, cuts, pins, GC."""

import pytest

from repro.errors import SnapshotUnavailable
from repro.harness.runner import build_scheme
from repro.mvcc.store import GC_PERIOD, RO_STALENESS_FLOOR, VersionChain, version_key
from repro.storage.copies import Version


class TestVersionChain:
    def test_insert_keeps_key_order_and_dedupes(self):
        chain = VersionChain("X")
        assert chain.insert(Version(5.0, 3, 1), "c")
        assert chain.insert(Version(1.0, 1, 1), "a")
        assert chain.insert(Version(3.0, 2, 1), "b")
        # Same (ts, commit) key again — a copier re-ship — is a no-op.
        assert not chain.insert(Version(3.0, 2, 9), "b2")
        assert [record.value for record in chain.records] == ["a", "b", "c"]
        assert chain.keys == sorted(chain.keys)

    def test_floor_picks_newest_at_or_below_cut(self):
        chain = VersionChain("X")
        chain.insert(Version(1.0, 1, 1), "a")
        chain.insert(Version(3.0, 2, 1), "b")
        assert chain.floor((2.0, 0)).value == "a"
        assert chain.floor((3.0, 5)).value == "b"
        # A cut exactly at a version's ts excludes it: real commits have
        # commit >= 1 and cuts carry commit 0.
        assert chain.floor((3.0, 0)).value == "a"
        assert chain.floor((0.5, 0)) is None

    def test_version_key_drops_seq(self):
        assert version_key(Version(2.0, 7, 123)) == (2.0, 7)


def _write(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def _build(n_sites=3, items=None):
    kernel, system = build_scheme(
        "rowaa", 5, n_sites, items if items is not None else {"X": 0, "Y": 0}
    )
    return kernel, system


def _store(system, site_id):
    """The site's version store, built as a first ``beginRO`` builds it."""
    return system.tms[site_id].snapshot_manager().store


class TestServingCut:
    def test_current_site_serves_rolling_floor(self):
        kernel, system = _build()
        store = _store(system, 1)
        kernel.run(until=100.0)
        cut, stale = store.serving_cut()
        assert not stale
        assert cut == (100.0 - RO_STALENESS_FLOOR, 0)

    def test_recovering_site_serves_durable_stale_cut(self):
        kernel, system = _build()
        store = _store(system, 3)
        kernel.run(system.submit(1, _write("X", 1)))
        kernel.run(until=50.0)
        system.crash(3)
        kernel.run(until=60.0)
        system.power_on(3)
        assert not system.cluster.site(3).is_operational
        cut, stale = store.serving_cut()
        assert stale
        # Fully current at crash time 50: the durable cut advances to
        # crash - D, and every version below it is provably held.
        assert cut == (50.0 - RO_STALENESS_FLOOR, 0)

    def test_read_below_truncated_chain_raises(self):
        kernel, system = _build()
        store = _store(system, 1)
        with pytest.raises(SnapshotUnavailable):
            store.read_at("X", (-1.0, 0))

    def test_initial_version_readable_at_genesis_cut(self):
        _kernel, system = _build()
        value, version = _store(system, 1).read_at("X", (0.0, 0))
        assert value == 0
        assert version_key(version) == (0.0, 0)


class TestGc:
    def _grow_chain(self, kernel, system, n=4):
        for index in range(n):
            kernel.run(system.submit(1, _write("X", index + 1)))
            kernel.run(until=kernel.now + 5.0)

    def test_unpinned_chain_shrinks_to_one(self):
        kernel, system = _build()
        store = _store(system, 1)
        self._grow_chain(kernel, system)
        assert len(store.chain("X")) == 5  # initial + 4 commits
        kernel.run(until=kernel.now + 50.0)
        store.sweep()
        # Everything below now - D is reclaimable except the floor the
        # current serving cut resolves to.
        assert len(store.chain("X")) == 1
        assert store.chain("X").records[-1].value == 4
        assert store.stats.gc_reclaimed == 4

    def test_background_sweep_runs_on_kernel_timer(self):
        kernel, system = _build()
        store = _store(system, 1)
        self._grow_chain(kernel, system)
        kernel.run(until=kernel.now + 3 * GC_PERIOD)
        assert store.stats.gc_sweeps >= 2
        assert len(store.chain("X")) == 1

    def test_pin_blocks_reclaim_of_snapshot_floor(self):
        kernel, system = _build()
        store = _store(system, 1)
        manager = system.tms[1].snapshot_manager()
        kernel.run(system.submit(1, _write("X", 1)))
        kernel.run(until=kernel.now + 10.0)
        snapshot = manager.begin()
        pinned_value, _version = store.read_at("X", snapshot.cut)
        self._grow_chain(kernel, system)
        kernel.run(until=kernel.now + 50.0)
        store.sweep()
        # The pinned cut still resolves, to the same version.
        value, _version = store.read_at("X", snapshot.cut)
        assert value == pinned_value
        manager.release(snapshot)
        store.sweep()
        assert len(store.chain("X")) == 1

    def test_release_is_idempotent(self):
        _kernel, system = _build()
        manager = system.tms[1].snapshot_manager()
        snapshot = manager.begin()
        manager.release(snapshot)
        manager.release(snapshot)
        assert manager.active() == 0

    def test_gc_hook_reports_truncation(self):
        kernel, system = _build()
        store = _store(system, 1)
        seen = []
        kernel.probes.gc.append(
            lambda site_id, item, removed, pins, before: seen.append(
                (site_id, item, len(removed), len(before))
            )
        )
        self._grow_chain(kernel, system)
        kernel.run(until=kernel.now + 50.0)
        store.sweep()
        assert (1, "X", 4, 5) in seen


class TestCheckpointPayload:
    def test_payload_round_trips_through_on_restore(self):
        kernel, system = _build()
        store = _store(system, 1)
        # A snapshot pinned at the genesis cut keeps on_restore's closing
        # trim from reclaiming anything, so the whole chain must return.
        system.tms[1].snapshot_manager().begin()
        kernel.run(system.submit(1, _write("X", 1)))
        kernel.run(system.submit(1, _write("X", 2)))
        copies = system.cluster.site(1).copies
        own = {item: copies.get(item).version for item in copies.items()}
        tails = [(item, store.chain_tail(item, own[item])) for item in own]
        assert dict(tails)["Y"] == ()  # the copy's own version is not tail
        assert len(dict(tails)["X"]) == 2
        before = store.digest_state()
        # A fresh store image: reset clears chains, the copy installs
        # re-seed each chain with its own version (the restore path),
        # then the tail merge rebuilds the rest.
        store._on_copy_event("reset", None, None, None)
        for item, version in own.items():
            store._on_copy_event("install", item, copies.get(item).value, version)
        system.cluster.site(1).last_crash_time = None
        store.on_restore(store.stale_cut, tails)
        assert store.digest_state() == before
