"""Tests for the ROWAA strategy (§3.2)."""

import pytest

from repro.core import RowaaConfig
from repro.errors import TransactionAborted
from repro.txn import TxnConfig
from tests.core.conftest import build_system, read_program, write_program


class TestViewAndInterpretation:
    def test_begin_reads_nominal_vector(self, rig):
        kernel, system = rig
        views = []

        def program(ctx):
            views.append(dict(ctx.view))
            yield from ()

        kernel.run(system.submit(1, program))
        assert views == [{1: 1, 2: 1, 3: 1}]

    def test_write_goes_to_all_nominally_up_copies(self, rig):
        kernel, system = rig
        kernel.run(system.submit(2, write_program("X", 5)))
        for site_id in (1, 2, 3):
            assert system.copy_value(site_id, "X") == 5

    def test_write_skips_nominally_down_site(self, rig):
        kernel, system = rig
        system.crash(3)
        kernel.run(until=kernel.now + 30)  # detection + type 2
        assert system.nominal_view(1)[3] == 0
        kernel.run(system.submit(1, write_program("X", 9)))
        assert system.copy_value(1, "X") == 9
        assert system.copy_value(2, "X") == 9
        assert system.copy_value(3, "X") == 0  # missed, to be recovered

    def test_read_prefers_local_copy(self, rig):
        kernel, system = rig
        kernel.run(system.submit(1, write_program("X", 3)))
        before = system.cluster.network.stats.sent
        kernel.run(system.submit(1, read_program("X")))
        # A local read of X plus the implicit local NS reads: no *remote*
        # messages at all for a read-only transaction at its home site.
        assert system.cluster.network.stats.sent == before

    def test_read_redirects_when_local_site_lacks_copy(self):
        from repro.storage import Catalog

        # X resides only at sites 2 and 3; reader at site 1.
        catalog = Catalog([1, 2, 3])
        catalog.add_item("X", [2, 3])
        kernel, system = build_system(items={"X": 7}, catalog=catalog)
        assert kernel.run(system.submit(1, read_program("X"))) == 7


class TestStaleViews:
    def test_stale_view_write_aborts_on_session_mismatch(self):
        """A transaction whose view predates a recovery must be rejected.

        We freeze a view by reading NS, then let site 3 crash+recover
        (new session), then write: the tagged request carries the old
        session number and site 3's DM rejects it.
        """
        kernel, system = build_system(detection_delay=2.0)

        def slow_writer(ctx):
            # View is established by begin(); now stall while the world
            # changes under us.
            yield kernel.timeout(120)
            yield from ctx.write("X", 1)

        proc = system.submit(1, slow_writer)
        kernel.run(until=5)
        system.crash(3)
        kernel.run(until=20)
        record_proc = system.power_on(3)
        kernel.run(record_proc)
        # Session numbers burn on aborted type-1 attempts, so the exact
        # number is timing-dependent — but it is a fresh session > 1.
        assert system.sessions[3].current > 1
        with pytest.raises(TransactionAborted) as excinfo:
            kernel.run(proc)
        assert excinfo.value.reason == "session-mismatch"

    def test_fresh_transaction_after_recovery_succeeds(self):
        kernel, system = build_system(detection_delay=2.0)
        system.crash(3)
        kernel.run(until=20)
        kernel.run(system.power_on(3))
        # Retry because the write may deadlock with an in-flight copier.
        kernel.run(system.submit_with_retry(1, write_program("X", 4), attempts=5))
        assert system.copy_value(3, "X") == 4  # new view includes site 3

    def test_write_during_detection_window_aborts_then_retries(self):
        """Between crash and type-2, views still include the dead site;
        writes time out and abort, but a retry after exclusion commits."""
        kernel, system = build_system(detection_delay=10.0)
        system.crash(3)
        proc = system.submit_with_retry(1, write_program("X", 8), attempts=5,
                                        retry_delay=15.0)
        result_error = None
        try:
            kernel.run(proc)
        except TransactionAborted as exc:  # pragma: no cover - should retry fine
            result_error = exc
        assert result_error is None
        assert system.copy_value(1, "X") == 8
        stats = system.tms[1].stats
        assert stats.aborted >= 1  # the first attempt hit the rpc timeout

    def test_write_disruption_window_grows_with_detection_delay(self):
        """Time from a crash until the first write commits again: no write
        commits while the nominal view still names the dead site (every
        attempt times out), so the window is roughly detection delay +
        type-2 commit + the in-flight timeout."""
        window = {}
        for delay in (2.0, 10.0, 40.0):
            kernel, system = build_system(
                seed=21, items={"X": 0}, detection_delay=delay,
                # Tight (but > RTT) timeouts so the detection delay, not
                # timeout machinery, is the binding term of the window.
                txn_config=TxnConfig(rpc_timeout=8.0),
                rowaa_config=RowaaConfig(type2_verify_ping=3.0),
            )

            def hammer():
                while True:
                    try:
                        yield from system.tms[1].run(write_program("X", 1))
                        return kernel.now - 20.0
                    except TransactionAborted:
                        yield kernel.timeout(1.0)

            kernel.run(until=20.0)
            system.crash(3)
            first_write = kernel.process(hammer())
            kernel.run(until=400.0)
            system.stop()
            kernel.run(until=410.0)
            window[delay] = first_write.value if first_write.processed else None
        assert all(value is not None for value in window.values())
        assert window[2.0] < window[10.0] < window[40.0]
        # The window tracks the detection delay roughly one-for-one.
        assert window[40.0] - window[2.0] >= 0.5 * (40.0 - 2.0)


class TestUnreadablePolicies:
    def _stale_setup(self, rowaa_config):
        kernel, system = build_system(
            detection_delay=2.0, rowaa_config=rowaa_config, seed=7
        )
        system.crash(3)
        kernel.run(until=20)
        kernel.run(system.submit(1, write_program("X", 55)))
        kernel.run(system.power_on(3))
        return kernel, system

    def test_redirect_policy_reads_remote_copy(self):
        config = RowaaConfig(copier_mode="none", unreadable_policy="redirect")
        kernel, system = self._stale_setup(config)
        # Site 3 is operational but its X copy is unreadable; a read at
        # site 3 redirects to a peer copy and still succeeds.
        assert kernel.run(system.submit(3, read_program("X"))) == 55

    def test_wait_policy_blocks_until_copier_renovates(self):
        config = RowaaConfig(
            copier_mode="demand", unreadable_policy="wait", unreadable_wait=3.0
        )
        kernel, system = self._stale_setup(config)
        assert kernel.run(system.submit(3, read_program("X"))) == 55
        # The demand-triggered copier renovated the local copy:
        assert system.copy_value(3, "X") == 55
        assert not system.cluster.site(3).copies.get("X").unreadable

    def test_user_write_clears_unreadable_mark(self):
        config = RowaaConfig(copier_mode="none")
        kernel, system = self._stale_setup(config)
        assert system.cluster.site(3).copies.get("X").unreadable
        kernel.run(system.submit(1, write_program("X", 77)))
        assert not system.cluster.site(3).copies.get("X").unreadable
        assert system.copy_value(3, "X") == 77
