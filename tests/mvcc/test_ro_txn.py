"""End-to-end read-only snapshot transactions (the beginRO path).

The properties the subsystem is sold on: snapshot isolation (a RO
transaction sees a consistent committed prefix — fractured reads are
impossible), lock freedom (a RO read completes instantly even while a
writer holds the X lock), service during recovery (a RECOVERING site
answers from its durable stale cut while its missing list is being
drained), and write-path refusal.
"""

import pytest

from repro.errors import NotOperational, TransactionAborted, TransactionError
from repro.harness.runner import build_scheme
from repro.mvcc.store import RO_STALENESS_FLOOR
from repro.txn.transaction import TxnKind
from repro.wal.log import CHECKPOINT_ITEM_PREFIX


def _write_pair(value):
    """Writers preserve the invariant X == Y inside one transaction."""

    def program(ctx):
        yield from ctx.write("X", value)
        yield from ctx.write("Y", value)

    return program


def _collect_ro(system, site_id, items, out):
    """Run a RO txn at ``site_id``, appending (values, ctx facts) to out."""

    def body():
        def ro_program(ctx):
            values = yield from ctx.read_many(items)
            out.append(
                {
                    "values": values,
                    "stale": ctx.served_stale,
                    "staleness": ctx.staleness_bound,
                }
            )
            return values

        yield from system.tms[site_id].run_ro(ro_program)

    return system.kernel.process(body(), name="test-ro")


def _build(seed=5, n_sites=3):
    return build_scheme("rowaa", seed, n_sites, {"X": 0, "Y": 0})


class TestSnapshotIsolation:
    def test_ro_never_sees_fractured_writes(self):
        # Writers keep X == Y in every committed transaction; a RO txn
        # interleaved anywhere must never observe X != Y.
        kernel, system = _build()
        for round_index in range(6):
            system.submit(1 + round_index % 3, _write_pair(round_index + 1))
            views: list = []
            kernel.run(_collect_ro(system, 1, ("X", "Y"), views))
            (view,) = views
            assert view["values"][0] == view["values"][1]
            kernel.run(until=kernel.now + 7.0)

    def test_ro_reads_are_a_committed_prefix(self):
        # Reads resolve at now - D: a commit decided long enough ago is
        # visible, and the view never runs ahead of the recorder.
        kernel, system = _build()
        kernel.run(system.submit(1, _write_pair(7)))
        kernel.run(until=kernel.now + RO_STALENESS_FLOOR + 1.0)
        views: list = []
        kernel.run(_collect_ro(system, 2, ("X", "Y"), views))
        assert views[0]["values"] == [7, 7]
        assert not views[0]["stale"]
        assert views[0]["staleness"] == pytest.approx(RO_STALENESS_FLOOR)

    def test_ro_commits_are_counted_apart_from_rw(self):
        kernel, system = _build()
        views: list = []
        kernel.run(_collect_ro(system, 1, ("X",), views))
        tm = system.tms[1]
        assert tm.stats.ro_committed == 1
        assert tm.stats.committed == 0
        assert system.mvcc[1].stats.ro_served == 1


class TestBuiltAtFirstSnapshot:
    """A site builds its version store at its first ``beginRO``."""

    def test_read_write_traffic_alone_builds_no_store(self):
        kernel, system = _build()
        for value in (1, 2, 3):
            kernel.run(system.submit(1, _write_pair(value)))
        kernel.run(until=kernel.now + 120.0)  # past two GC periods
        assert system.mvcc == {} and system.snapshots == {}
        for site in system.cluster.sites.values():
            assert site.mvcc is None
            assert not [proc for proc in site._procs if "mvcc-gc" in proc.name]
            site.wal.checkpoint()
            tails = [
                site.stable.get(key)[3]
                for key in site.stable.keys()
                if key.startswith(CHECKPOINT_ITEM_PREFIX)
            ]
            assert tails and not any(tails)

    def test_first_snapshot_builds_its_site_only_at_the_genesis_cut(self):
        kernel, system = _build()
        assert kernel.now == 0.0
        views: list = []
        kernel.run(_collect_ro(system, 2, ("X", "Y"), views))
        assert list(system.mvcc) == [2] and list(system.snapshots) == [2]
        assert system.cluster.site(2).mvcc is system.mvcc[2]
        assert views[0]["values"] == [0, 0]
        assert views[0]["staleness"] == 0.0  # the cut (0, 0): genesis
        assert [p for p in system.cluster.site(2)._procs if "mvcc-gc" in p.name]

    def test_first_snapshot_while_recovering_aborts_on_pre_crash_writes(self):
        kernel, system = _build()
        kernel.run(system.submit(1, _write_pair(3)))
        kernel.run(until=30.0)
        system.crash(3)
        kernel.run(until=kernel.now + 40.0)
        system.power_on(3)
        assert not system.cluster.site(3).is_operational  # RECOVERING
        # No pre-crash version was kept, so the stale cut finds no floor
        # for X or Y: a clean abort, never a wrong (genesis) value.
        for items in (("X", "Y"), ("Y",)):
            views: list = []
            with pytest.raises(TransactionAborted) as caught:
                kernel.run(_collect_ro(system, 3, items, views))
            assert caught.value.reason == "snapshot-unavailable"
            assert views == []
        assert system.mvcc[3].stats.ro_served == 0


class TestLockFreedom:
    def test_ro_read_completes_while_writer_holds_x_lock(self):
        kernel, system = _build()
        kernel.run(system.submit(1, _write_pair(1)))

        def slow_writer(ctx):
            yield from ctx.write("X", 99)
            # Hold the X locks for a long time before committing.
            yield ctx.tm.kernel.timeout(500.0)

        system.submit(1, slow_writer)
        kernel.run(until=kernel.now + 10.0)  # writer now holds X locks
        started = kernel.now
        views: list = []
        proc = _collect_ro(system, 1, ("X", "Y"), views)
        kernel.run(proc)
        # The snapshot read went straight through: no lock queue, no 2PC,
        # not even simulated time passed — and it saw the last committed
        # value, not the uncommitted 99.
        assert kernel.now == started
        assert views[0]["values"] == [1, 1]

    def test_ro_takes_no_locks_and_no_deadlock_edges(self):
        kernel, system = _build()
        waits_before = system.dms[1].lock_manager.stats_waits
        grants_before = system.dms[1].lock_manager.stats_grants
        views: list = []
        kernel.run(_collect_ro(system, 1, ("X", "Y"), views))
        assert system.dms[1].lock_manager.stats_waits == waits_before
        assert system.dms[1].lock_manager.stats_grants == grants_before


class TestRecoveringSiteServes:
    def test_reads_answered_while_missing_list_drains(self):
        kernel, system = _build()
        kernel.run(_collect_ro(system, 3, ("X",), []))  # site 3 keeps versions
        kernel.run(system.submit(1, _write_pair(3)))
        kernel.run(until=30.0)
        system.crash(3)
        kernel.run(until=kernel.now + 40.0)  # detection + exclusion
        # Site 3 misses this update entirely.
        kernel.run(system.submit_with_retry(1, _write_pair(8)))
        kernel.run(until=kernel.now + 10.0)
        system.power_on(3)
        site = system.cluster.site(3)
        assert not site.is_operational  # RECOVERING
        views: list = []
        kernel.run(_collect_ro(system, 3, ("X", "Y"), views))
        (view,) = views
        # Served from the durable stale cut: the pre-crash committed
        # prefix, consistent, with an explicit staleness bound covering
        # the whole outage.
        assert view["stale"]
        assert view["values"] == [3, 3]
        assert view["staleness"] >= kernel.now - 30.0
        assert system.mvcc[3].stats.ro_served_stale >= 2
        # Once recovery completes the same site serves current reads.
        kernel.run(until=kernel.now + 400.0)
        assert site.is_operational
        late: list = []
        kernel.run(_collect_ro(system, 3, ("X", "Y"), late))
        assert late[0]["values"] == [8, 8]
        assert not late[0]["stale"]

    def test_down_site_refuses_begin_ro(self):
        kernel, system = _build()
        system.crash(3)

        def body():
            def ro_program(ctx):
                yield from ctx.read("X")

            yield from system.tms[3].run_ro(ro_program)

        proc = system.kernel.process(body(), name="test-refused")
        proc.defuse()
        kernel.run(until=kernel.now + 5.0)
        assert isinstance(proc.exception, NotOperational)
        assert system.tms[3].stats.ro_refused == 1


class TestReadOnlyContract:
    def test_write_raises_transaction_error(self):
        kernel, system = _build()

        def body():
            def ro_program(ctx):
                yield from ctx.write("X", 1)

            yield from system.tms[1].run_ro(ro_program)

        proc = system.kernel.process(body(), name="test-ro-write")
        proc.defuse()
        kernel.run(until=kernel.now + 5.0)
        assert isinstance(proc.exception, TransactionError)
        assert system.tms[1].stats.ro_aborted == 1

    def test_ro_transaction_is_user_kind_and_flagged(self):
        kernel, system = _build()
        seen = []
        kernel.probes.txn_finish.append(lambda site_id, txn: seen.append(txn))
        views: list = []
        kernel.run(_collect_ro(system, 1, ("X",), views))
        (txn,) = seen
        assert txn.kind is TxnKind.USER
        assert txn.read_only

    def test_mvcc_off_refuses_begin_ro(self):
        # The multiversion subsystem is 2PL-only: under TO it is off.
        kernel, system = build_scheme("rowaa", 5, 3, {"X": 0}, concurrency="to")
        assert system.mvcc == {}

        def body():
            def ro_program(ctx):
                yield from ctx.read("X")

            yield from system.tms[1].run_ro(ro_program)

        proc = system.kernel.process(body(), name="test-no-mvcc")
        proc.defuse()
        kernel.run(until=kernel.now + 5.0)
        assert isinstance(proc.exception, NotOperational)
