"""Happens-before detector: clocks, edges, races, coroutine atomicity."""

import pytest

from repro.sanitize.hb import attach_detector, clock_leq
from repro.sim.kernel import Kernel


@pytest.fixture
def detector():
    kernel = Kernel(seed=0)
    return kernel, attach_detector(kernel)


class TestClockOrder:
    def test_empty_clock_precedes_everything(self):
        assert clock_leq({}, {1: 5})

    def test_componentwise_comparison(self):
        assert clock_leq({1: 2}, {1: 3, 2: 9})
        assert not clock_leq({1: 4}, {1: 3})
        assert not clock_leq({1: 1, 2: 2}, {1: 2})  # missing component


class TestRaces:
    def test_concurrent_writes_race(self, detector):
        kernel, det = detector

        def writer(where):
            yield kernel.timeout(1.0)
            det.on_access(1, ("copy", "x"), "write", where)

        kernel.process(writer("A.write"))
        kernel.process(writer("B.write"))
        kernel.run()
        assert [r.kind for r in det.races] == ["write-write"]
        report = det.races[0]
        assert {report.first_where, report.second_where} == \
            {"A.write", "B.write"}
        assert report.site == 1 and report.key == ("copy", "x")

    def test_scheduling_edge_orders_accesses(self, detector):
        kernel, det = detector
        ready = kernel.event("ready")

        def first():
            yield kernel.timeout(1.0)
            det.on_access(1, ("copy", "x"), "write", "first.write")
            ready.succeed(None)

        def second():
            yield ready
            det.on_access(1, ("copy", "x"), "write", "second.write")

        kernel.process(first())
        kernel.process(second())
        kernel.run()
        assert det.races == []

    def test_message_edge_orders_accesses(self, detector):
        kernel, det = detector

        def sender():
            yield kernel.timeout(1.0)
            det.on_access(2, ("session",), "write", "sender.install")
            det.on_send(42)

        def receiver():
            yield kernel.timeout(2.0)
            det.join_message(42)
            det.on_access(2, ("session",), "read", "receiver.read")

        kernel.process(sender())
        kernel.process(receiver())
        kernel.run()
        assert det.races == []

    def test_unjoined_message_leaves_accesses_racing(self, detector):
        kernel, det = detector

        def sender():
            yield kernel.timeout(1.0)
            det.on_access(2, ("session",), "write", "sender.install")

        def receiver():
            yield kernel.timeout(2.0)
            det.on_access(2, ("session",), "read", "receiver.read")

        kernel.process(sender())
        kernel.process(receiver())
        kernel.run()
        assert [r.kind for r in det.races] == ["read-write"]

    def test_reads_never_race_each_other(self, detector):
        kernel, det = detector

        def reader(where):
            yield kernel.timeout(1.0)
            det.on_access(1, ("copy", "x"), "read", where)

        kernel.process(reader("A.read"))
        kernel.process(reader("B.read"))
        kernel.run()
        assert det.races == []

    def test_duplicate_reports_are_deduped(self, detector):
        kernel, det = detector

        def writer(where):
            yield kernel.timeout(1.0)
            det.on_access(1, ("copy", "x"), "write", where)
            det.on_access(1, ("copy", "x"), "write", where)

        kernel.process(writer("A.write"))
        kernel.process(writer("B.write"))
        kernel.run()
        assert len(det.races) == len({
            (r.kind, r.site, r.key, r.first_where, r.second_where)
            for r in det.races
        })


class TestAtomicity:
    def test_stale_read_across_yield_is_flagged(self, detector):
        kernel, det = detector

        def decider():
            yield kernel.timeout(1.0)
            det.on_access(1, ("session",), "read", "decider.read", token=7)
            yield kernel.timeout(2.0)  # suspend: the world changes
            det.on_access(1, ("session",), "write", "decider.commit")

        def installer():
            yield kernel.timeout(2.0)
            det.on_access(1, ("session",), "write", "installer.activate",
                          token=8)

        kernel.process(decider())
        kernel.process(installer())
        kernel.run()
        kinds = {r.kind for r in det.races}
        assert "atomicity" in kinds
        report = next(r for r in det.races if r.kind == "atomicity")
        assert report.first_where == "decider.read"
        assert report.second_where == "decider.commit"

    def test_revalidated_read_is_clean(self, detector):
        kernel, det = detector

        def decider():
            yield kernel.timeout(1.0)
            det.on_access(1, ("session",), "read", "decider.read", token=7)
            yield kernel.timeout(2.0)
            # Re-read after resuming: revalidation clears the record.
            det.on_access(1, ("session",), "read", "decider.reread", token=8)
            det.on_access(1, ("session",), "write", "decider.commit")

        def installer():
            yield kernel.timeout(2.0)
            det.on_access(1, ("session",), "write", "installer.activate",
                          token=8)

        kernel.process(decider())
        kernel.process(installer())
        kernel.run()
        assert not any(r.kind == "atomicity" for r in det.races)

    def test_unchanged_value_is_clean(self, detector):
        kernel, det = detector

        def decider():
            yield kernel.timeout(1.0)
            det.on_access(1, ("session",), "read", "decider.read", token=7)
            yield kernel.timeout(2.0)
            det.on_access(1, ("session",), "write", "decider.commit")

        kernel.process(decider())
        kernel.run()
        assert not any(r.kind == "atomicity" for r in det.races)


class TestSeams:
    def test_notes_are_context_not_races(self, detector):
        kernel, det = detector

        def worker():
            yield kernel.timeout(1.0)
            det.on_access(1, ("lock", "x"), "note", "LockManager.acquire[w]")

        kernel.process(worker())
        kernel.run()
        assert det.races == []
        assert len(det.notes) == 1

    def test_attach_detach_manage_the_kernels_bus(self):
        kernel = Kernel(seed=0)
        det = attach_detector(kernel)
        assert det.on_access in kernel.probes.access
        assert det.begin_dispatch in kernel.probes.dispatch_begin
        kernel.probes.detach(det)
        assert not kernel.probes

    def test_recycled_process_address_does_not_inherit_a_clock(self, detector):
        """A process started after another died may land on its address;
        keyed by ``id(process)`` it inherited the dead strand's clock and
        the race below went unreported."""
        kernel, det = detector

        def writer(where):
            yield kernel.timeout(1.0)
            det.on_access(1, ("copy", "x"), "write", where)

        kernel.run(kernel.process(writer("A.write")))
        # No causal edge from A: B is started from outside any dispatch.
        kernel.run(kernel.process(writer("B.write")))
        assert [(r.first_where, r.second_where) for r in det.races] == [
            ("A.write", "B.write")
        ]

    def test_summary_and_render(self, detector):
        kernel, det = detector

        def writer(where):
            yield kernel.timeout(1.0)
            det.on_access(1, ("copy", "x"), "write", where)

        kernel.process(writer("A.write"))
        kernel.process(writer("B.write"))
        kernel.run()
        summary = det.summary()
        assert summary["races"] == 1
        assert summary["by_kind"] == {"write-write": 1}
        assert "A.write" in det.render() and "B.write" in det.render()
