"""Directed tests for the commit-mode seam and its 2PC edge races.

``sync_2pc`` is the write-all baseline (prepare round, commit round,
client acked after both); ``async_quorum`` pipelines prepares onto the
writes, acks the client at the quorum decision, and drains the applies
in the background. The races pinned here are the ones the ISSUE names:
prepare timeout vs participant crash, commit-ack loss covered by
recovery marks, and the async drain racing a drained site going down.
"""

import pytest

from repro.errors import TransactionAborted
from repro.txn import TxnConfig, data_manager
from repro.txn.transaction import TxnStatus

from tests.core.conftest import build_system, write_program


def total(tms, field):
    return sum(getattr(tm.stats, field) for tm in tms.values())


def locked_items(system, site_id):
    manager = system.dms[site_id].lock_manager
    return {
        item
        for item, state in manager._table.items()
        if state.holders or state.queue
    }


class TestModeBasics:
    @pytest.mark.parametrize("mode", ["sync_2pc", "async_quorum"])
    def test_committed_writes_converge_everywhere(self, mode):
        kernel, system = build_system(
            txn_config=TxnConfig(rpc_timeout=30.0, commit_mode=mode)
        )
        for value in (1, 2, 3):
            kernel.run(system.submit(1 + value % 3, write_program("X", value)))
        kernel.run(until=kernel.now + 100)  # let any drains land
        for site in (1, 2, 3):
            assert system.copy_value(site, "X") == 3

    def test_async_acks_faster_than_sync(self):
        latencies = {}
        for mode in ("sync_2pc", "async_quorum"):
            kernel, system = build_system(
                txn_config=TxnConfig(rpc_timeout=30.0, commit_mode=mode)
            )
            kernel.run(system.submit(1, write_program("X", 9)))
            latencies[mode] = system.tms[1].stats.ack_latencies[0]
        # The async client never waits for the apply round.
        assert latencies["async_quorum"] < latencies["sync_2pc"]

    def test_async_decision_spawns_and_completes_drain(self):
        kernel, system = build_system(
            txn_config=TxnConfig(rpc_timeout=30.0, commit_mode="async_quorum")
        )
        kernel.run(system.submit(1, write_program("X", 4)))
        kernel.run(until=kernel.now + 100)
        assert total(system.tms, "async_commits") == 1
        assert total(system.tms, "drains_spawned") == 1
        assert total(system.tms, "drains_completed") == 1

    def test_async_quorum_requires_2pl(self):
        from repro.baselines import StrictROWA
        from repro.sim import Kernel
        from repro.system import DatabaseSystem

        with pytest.raises(ValueError, match="requires 2PL"):
            DatabaseSystem(
                Kernel(seed=1),
                n_sites=3,
                items={"X": 0},
                strategy_factory=lambda _s: StrictROWA(),
                concurrency="to",
                config=TxnConfig(commit_mode="async_quorum"),
            )


class TestPrepareRaces:
    def _crash_during(self, mode, crash_at):
        kernel, system = build_system(
            txn_config=TxnConfig(rpc_timeout=20.0, commit_mode=mode)
        )

        def writer(ctx):
            yield from ctx.write("X", 1)
            yield kernel.timeout(30)  # crash lands inside the window

        proc = system.submit(1, writer)
        kernel.run(until=crash_at)
        system.crash(3)
        return kernel, system, proc

    def test_sync_prepare_timeout_vs_participant_crash_aborts(self):
        """Site 3 holds the write but dies before voting: the prepare
        round times out, the transaction aborts, survivors roll back,
        and no lock leaks."""
        kernel, system, proc = self._crash_during("sync_2pc", crash_at=5.0)
        with pytest.raises(TransactionAborted):
            kernel.run(proc)
        kernel.run(until=kernel.now + 300)
        for site in (1, 2):
            assert system.copy_value(site, "X") == 0
            assert "X" not in locked_items(system, site)

    def test_async_write_timeout_vs_participant_crash_aborts(self):
        """The pipelined write+prepare is still in flight when site 3
        dies: write-all fails, so no quorum forms and the transaction
        aborts cleanly."""
        kernel, system, proc = self._crash_during("async_quorum", crash_at=0.5)
        with pytest.raises(TransactionAborted):
            kernel.run(proc)
        kernel.run(until=kernel.now + 300)
        for site in (1, 2):
            assert system.copy_value(site, "X") == 0
            assert "X" not in locked_items(system, site)

    def test_async_prepared_crash_still_commits_by_quorum(self):
        """Site 3's pipelined prepare landed durably before its crash:
        the surviving majority satisfies the quorum, the decision is
        COMMIT, and recovery converges the lost copy."""
        kernel, system, proc = self._crash_during("async_quorum", crash_at=5.0)
        kernel.run(proc)  # commits despite the dead participant
        kernel.run(until=kernel.now + 200)
        assert system.copy_value(1, "X") == 1
        assert system.copy_value(2, "X") == 1
        system.power_on(3)
        kernel.run(until=kernel.now + 600)
        assert system.copy_value(3, "X") == 1


class TestCommitAckLoss:
    def _commit_with_participant_crash(self, mode):
        """Commit X=7, crashing site 3 at the decision point — after its
        prepare vote, before the COMMIT reaches it."""
        kernel, system = build_system(
            txn_config=TxnConfig(rpc_timeout=20.0, commit_mode=mode)
        )
        tm = system.tms[1]
        original_finish = tm._finish

        def finish_then_crash(txn, status, version, reason=None):
            if status is TxnStatus.COMMITTED and not system.cluster.site(3).is_down:
                system.crash(3)
            original_finish(txn, status, version, reason)

        tm._finish = finish_then_crash
        kernel.run(system.submit(1, write_program("X", 7)))
        return kernel, system

    def test_sync_ack_loss_counted_and_covered_by_marks(self):
        kernel, system = self._commit_with_participant_crash("sync_2pc")
        kernel.run(until=kernel.now + 100)
        assert total(system.tms, "commit_ack_lost") == 1
        assert system.copy_value(1, "X") == 7
        assert system.copy_value(2, "X") == 7
        # Site 3 recovers: the miss-mark makes its stale copy unreadable
        # until the refresh lands, and the value converges.
        system.power_on(3)
        kernel.run(until=kernel.now + 600)
        assert system.copy_value(3, "X") == 7

    def test_async_drain_race_with_drained_site_going_down(self):
        """The drain loses its race with the participant's crash: the
        quorum decision stands, the drain gives the site up to recovery
        marks, and recovery still converges the copy."""
        kernel, system = self._commit_with_participant_crash("async_quorum")
        kernel.run(until=kernel.now + 200)  # drain retries, then gives up
        assert total(system.tms, "drains_spawned") == 1
        assert total(system.tms, "drains_completed") == 1
        assert system.copy_value(1, "X") == 7
        assert system.copy_value(2, "X") == 7
        system.power_on(3)
        kernel.run(until=kernel.now + 600)
        assert system.copy_value(3, "X") == 7


class TestIndoubtResolution:
    def test_restored_coordinator_push_unblocks_peers_promptly(self, monkeypatch):
        """Pipelined prepares + coordinator crash: participants block in
        doubt (correctly), and are released within a few hops of the
        coordinator powering back on — by the restored participant's
        cooperative-termination push and the detector's up-transition
        trigger, not the slow poll (both poll periods are set far past
        the test horizon)."""
        monkeypatch.setattr(data_manager, "DECISION_TIMEOUT", 5_000.0)
        monkeypatch.setattr(data_manager, "INDOUBT_RETRY", 5_000.0)
        kernel, system = build_system(
            txn_config=TxnConfig(rpc_timeout=20.0, commit_mode="async_quorum")
        )

        def stalls(ctx):
            yield from ctx.write("X", 3)  # pipelined prepare lands everywhere
            yield kernel.timeout(10_000)

        system.submit(1, stalls)
        kernel.run(until=kernel.now + 10)
        assert "X" in locked_items(system, 2)
        system.crash(1)
        kernel.run(until=kernel.now + 100)
        # In doubt: prepared participants must not guess.
        assert "X" in locked_items(system, 2)
        assert "X" in locked_items(system, 3)
        before = kernel.now
        system.power_on(1)
        kernel.run(until=before + 30)
        # Released long before any poll could fire; presumed abort (the
        # coordinator never logged a commit).
        assert "X" not in locked_items(system, 2)
        assert "X" not in locked_items(system, 3)
        for site in (2, 3):
            assert system.copy_value(site, "X") == 0
