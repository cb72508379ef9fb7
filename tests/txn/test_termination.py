"""2PC termination protocol edge cases (coordinator/participant crashes).

The paper assumes a correct atomic-commitment substrate ([9, 10]); these
tests pin down the one we built: presumed abort with a stable commit
log at the coordinator and cooperative termination at participants
(DESIGN.md §6, items 2-3).
"""

import pytest

from repro.baselines import StrictROWA
from repro.core.system import RowaaSystem
from repro.errors import TransactionAborted
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.system import DatabaseSystem
from repro.txn import TxnConfig, data_manager


def make_system(kernel, monkeypatch, decision_timeout=60.0):
    monkeypatch.setattr(data_manager, "DECISION_TIMEOUT", decision_timeout)
    system = DatabaseSystem(
        kernel,
        n_sites=3,
        items={"X": 0, "Y": 0},
        strategy_factory=lambda _system: StrictROWA(),
        latency=ConstantLatency(1.0),
        config=TxnConfig(rpc_timeout=20.0),
    )
    system.boot()
    return system


@pytest.fixture
def kernel():
    return Kernel(seed=55)


def locked_items(system, site_id):
    manager = system.dms[site_id].lock_manager
    return {
        item
        for item, state in manager._table.items()
        if state.holders or state.queue
    }


class TestCoordinatorCrash:
    def test_crash_before_prepare_aborts_orphans(self, kernel, monkeypatch):
        """Coordinator dies mid-execution: remote write intents + locks
        are cleaned up by the orphan watcher (presumed abort is safe —
        no prepare ever happened)."""
        system = make_system(kernel, monkeypatch)

        def stalls(ctx):
            yield from ctx.write("X", 1)
            yield kernel.timeout(10_000)

        system.submit(1, stalls)
        kernel.run(until=10)
        assert "X" in locked_items(system, 2)
        system.crash(1)
        kernel.run(until=300)
        assert "X" not in locked_items(system, 2)
        assert system.copy_value(2, "X") == 0

    def test_crash_after_decision_is_durable(self, kernel, monkeypatch):
        """The commit decision is logged stably before COMMIT messages
        go out: even if the coordinator crashes immediately after and
        loses its volatile state, a restarted coordinator confirms the
        commit to in-doubt participants."""
        system = make_system(kernel, monkeypatch, decision_timeout=40.0)

        def writer(ctx):
            yield from ctx.write("X", 7)

        # Intercept: crash the coordinator right at its commit point,
        # before any dm.commit is processed remotely.
        tm = system.tms[1]
        original_finish = tm._finish

        def finish_then_crash(txn, status, version, reason=None):
            original_finish(txn, status, version, reason)
            from repro.txn.transaction import TxnStatus

            if status is TxnStatus.COMMITTED:
                system.crash(1)

        tm._finish = finish_then_crash
        system.submit(1, writer)
        kernel.run(until=100)
        # The COMMIT messages never left (the site died at the decision
        # point); participants are in doubt and correctly block.
        assert system.copy_value(2, "X") == 0
        assert "X" in locked_items(system, 2)
        # The coordinator restarts; its STABLE commit log answers the
        # in-doubt participants and the write lands.
        system.power_on(1)
        kernel.run(until=500)
        assert system.copy_value(2, "X") == 7
        assert system.copy_value(3, "X") == 7
        assert "X" not in locked_items(system, 2)

    def test_indoubt_participant_blocks_until_coordinator_returns(self, kernel, monkeypatch):
        """Prepared + coordinator down + no peer knows: the participant
        must NOT guess (that could undo a decided commit); it waits and
        asks the restarted coordinator, which presumes abort for an
        unlogged transaction."""
        system = make_system(kernel, monkeypatch, decision_timeout=30.0)

        # Drive prepare manually so we control the exact window.
        from repro.txn.payloads import PrepareRequest, WriteRequest

        rpc1 = system.cluster.site(1).rpc
        write = WriteRequest(
            txn_id="T900@1", txn_seq=900, kind="user", item="X", value=42,
            expected=None,
        )
        kernel.run(rpc1.call(2, "dm.write", write, timeout=10))
        vote = kernel.run(
            rpc1.call(2, "dm.prepare",
                      PrepareRequest(txn_id="T900@1", participants=(2,)),
                      timeout=10)
        )
        assert vote is True
        system.crash(1)  # the "coordinator" (site 1) vanishes
        kernel.run(until=kernel.now + 100)
        # Still in doubt: lock held, value unchanged (blocked, not guessed).
        assert "X" in locked_items(system, 2)
        assert system.copy_value(2, "X") == 0
        # Coordinator restarts with no commit log entry -> presumed abort.
        system.power_on(1)
        kernel.run(until=kernel.now + 200)
        assert "X" not in locked_items(system, 2)
        assert system.copy_value(2, "X") == 0


class TestParticipantCrash:
    def test_participant_crash_before_prepare_aborts_txn(self, kernel, monkeypatch):
        system = make_system(kernel, monkeypatch)

        def writer(ctx):
            yield from ctx.write("X", 1)
            yield kernel.timeout(30)  # crash lands before prepare

        proc = system.submit(1, writer)
        kernel.run(until=5)
        system.crash(3)
        with pytest.raises(TransactionAborted):
            kernel.run(proc)
        # Surviving participants rolled back.
        assert system.copy_value(2, "X") == 0

    def test_participant_lost_vote_is_vote_no(self, kernel, monkeypatch):
        """A participant that crashed and restarted has no workspace:
        its prepare vote is 'no' and the transaction aborts everywhere."""
        system = make_system(kernel, monkeypatch)

        def writer(ctx):
            yield from ctx.write("X", 1)
            yield kernel.timeout(30)

        proc = system.submit(1, writer)
        kernel.run(until=10)
        system.crash(3)
        kernel.run(until=15)
        system.power_on(3)  # instant for ROWA
        with pytest.raises(TransactionAborted) as excinfo:
            kernel.run(proc)
        assert excinfo.value.reason in ("prepare-failed", "rpc-timeout")
        for site in (1, 2, 3):
            assert system.copy_value(site, "X") == 0

    def test_peer_cooperation_resolves_in_doubt(self, kernel, monkeypatch):
        """Coordinator down, but a peer participant already received the
        COMMIT: the in-doubt participant learns the outcome from it."""
        system = make_system(kernel, monkeypatch, decision_timeout=30.0)
        from repro.storage.copies import Version
        from repro.txn.payloads import CommitRequest, PrepareRequest, WriteRequest

        rpc1 = system.cluster.site(1).rpc
        for site in (2, 3):
            kernel.run(rpc1.call(
                site, "dm.write",
                WriteRequest(txn_id="T901@1", txn_seq=901, kind="user",
                             item="Y", value=5, expected=None),
                timeout=10,
            ))
            kernel.run(rpc1.call(
                site, "dm.prepare",
                PrepareRequest(txn_id="T901@1", participants=(2, 3)),
                timeout=10,
            ))
        # Commit reaches site 2 only; then the coordinator dies.
        version = Version(kernel.now, 999_999, 901)
        kernel.run(rpc1.call(2, "dm.commit", CommitRequest("T901@1", version),
                             timeout=10))
        system.crash(1)
        kernel.run(until=kernel.now + 200)
        # Site 3 resolved via site 2's knowledge: committed there too.
        assert system.copy_value(3, "Y") == 5
        assert "Y" not in locked_items(system, 3)


class TestLostRelease:
    def test_lost_release_of_a_read_only_commit_frees_its_s_locks(
        self, kernel, monkeypatch
    ):
        """A committed read-only transaction logs no decision (there is
        nothing to make durable) and frees its S locks with a
        fire-and-forget ``dm.release``. When that message is lost, the
        orphan watch asks the coordinator, which has no record of it:
        presumed abort frees the locks — releasing a reader's locks by
        abort or by commit is the same act — and a writer of the item
        is no longer stalled behind them."""
        monkeypatch.setattr(data_manager, "DECISION_TIMEOUT", 60.0)
        system = RowaaSystem(
            kernel, n_sites=3, items={"X": 0},
            latency=ConstantLatency(1.0), config=TxnConfig(rpc_timeout=20.0),
        )
        system.boot()
        network = system.cluster.network
        send, lost = network.send, []

        def lose_releases(msg):
            if msg.kind == "dm.release":
                lost.append(msg.dst)
            else:
                send(msg)

        network.send = lose_releases

        def reader(ctx):
            return (yield from ctx.read("X"))

        assert kernel.run(system.submit(1, reader)) == 0
        assert lost  # the release never left site 1
        network.send = send
        kernel.run(until=kernel.now + 200)
        for site in (1, 2, 3):
            assert locked_items(system, site) == set()

        def writer(ctx):
            yield from ctx.write("X", 5)

        kernel.run(system.submit(2, writer))
        for site in (1, 2, 3):
            assert system.copy_value(site, "X") == 5
