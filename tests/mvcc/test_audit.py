"""Directed faults for the mvcc auditor rules, and replay determinism.

Same contract as ``tests/audit/test_fault_injection.py``: break exactly
one mechanism, assert the matching rule fires critically, and assert
the clean path stays silent.
"""

from repro.audit import attach_auditor
from repro.harness.runner import build_scheme, build_traced_scheme


def _write(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def _ro(system, site_id, items, out=None):
    def body():
        def ro_program(ctx):
            values = yield from ctx.read_many(items)
            if out is not None:
                out.append(values)
            return values

        yield from system.tms[site_id].run_ro(ro_program)

    return system.kernel.process(body(), name="test-ro")


def _build():
    kernel, system = build_traced_scheme("rowaa", 11, 3, {"X": 0, "Y": 0})
    auditor = attach_auditor(system)
    return kernel, system, auditor


class TestSnapshotConsistencyRule:
    def test_tampered_chain_fires_on_ro_read(self):
        kernel, system, auditor = _build()
        store = system.tms[1].snapshot_manager().store
        kernel.run(system.submit(1, _write("X", 1)))
        kernel.run(system.submit(1, _write("X", 2)))
        kernel.run(until=kernel.now + 10.0)
        # Drop the newest committed version behind the store's back: the
        # serve now returns an older version than the site ever should.
        chain = store.chain("X")
        chain.records.pop()
        chain.keys.pop()
        kernel.run(_ro(system, 1, ("X",)))
        assert auditor.alerts.count(rule="mvcc.snapshot_consistency") >= 1
        alert = auditor.alerts.by_rule()["mvcc.snapshot_consistency"][0]
        assert alert.severity == "critical"
        assert alert.site == 1
        assert alert.details["item"] == "X"

    def test_clean_snapshot_reads_stay_silent(self):
        kernel, system, auditor = _build()
        kernel.run(system.submit(1, _write("X", 1)))
        kernel.run(until=kernel.now + 10.0)
        views: list = []
        kernel.run(_ro(system, 1, ("X", "Y"), views))
        kernel.run(_ro(system, 2, ("X", "Y"), views))
        assert views == [[1, 0], [1, 0]]
        assert auditor.alerts.count(rule="mvcc.snapshot_consistency") == 0
        assert not auditor.alerts.has_critical


class TestGcPinnedRule:
    def test_gc_ignoring_pins_fires(self):
        kernel, system, auditor = _build()
        manager = system.tms[1].snapshot_manager()
        store = manager.store
        kernel.run(system.submit(1, _write("X", 1)))
        kernel.run(until=kernel.now + 10.0)
        snapshot = manager.begin()  # pins the old cut
        for value in (2, 3, 4):
            kernel.run(system.submit(1, _write("X", value)))
            kernel.run(until=kernel.now + 5.0)
        kernel.run(until=kernel.now + 50.0)
        store.gc_respect_pins = False  # the injected GC bug
        store.sweep()
        assert auditor.alerts.count(rule="mvcc.gc_pinned") >= 1
        alert = auditor.alerts.by_rule()["mvcc.gc_pinned"][0]
        assert alert.severity == "critical"
        assert alert.site == 1
        assert tuple(alert.details["pin"]) == snapshot.cut

    def test_gc_respecting_pins_stays_silent(self):
        kernel, system, auditor = _build()
        manager = system.tms[1].snapshot_manager()
        store = manager.store
        kernel.run(system.submit(1, _write("X", 1)))
        kernel.run(until=kernel.now + 10.0)
        snapshot = manager.begin()
        for value in (2, 3, 4):
            kernel.run(system.submit(1, _write("X", value)))
            kernel.run(until=kernel.now + 5.0)
        kernel.run(until=kernel.now + 50.0)
        store.sweep()
        manager.release(snapshot)
        store.sweep()
        assert auditor.alerts.count(rule="mvcc.gc_pinned") == 0


class TestReplayDeterminism:
    def _scenario(self):
        kernel, system = build_scheme("rowaa", 7, 3, {"X": 0, "Y": 0})
        for tm in system.tms.values():
            tm.snapshot_manager()
        for value in (1, 2):
            kernel.run(system.submit(1, _write("X", value)))
            kernel.run(until=kernel.now + 5.0)
        system.crash(3)
        kernel.run(until=kernel.now + 40.0)
        kernel.run(system.submit_with_retry(1, _write("Y", 9)))
        system.power_on(3)
        kernel.run(until=kernel.now + 200.0)
        kernel.run(_ro(system, 3, ("X", "Y")))
        return {
            site_id: store.digest_state()
            for site_id, store in system.mvcc.items()
        }

    def test_same_seed_rebuilds_identical_chains(self):
        # Crash + checkpoint restore + copier drain, twice with the same
        # seed: the per-site version chains (keys, values, stale cut)
        # must come out byte-identical, or snapshot reads would diverge
        # across a replayed history.
        assert self._scenario() == self._scenario()
