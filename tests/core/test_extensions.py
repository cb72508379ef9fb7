"""Tests for the optional/extension features: session recycling (§3.1),
read preferences, and safety under message loss."""

import pytest

from repro.core import RowaaConfig
from repro.core.nominal import db_item_filter
from repro.histories import check_one_sr
from tests.core.conftest import build_system, read_program, write_program


class TestSessionRecycling:
    def test_numbers_wrap_at_modulus(self):
        config = RowaaConfig(session_modulus=3)
        kernel, system = build_system(rowaa_config=config)
        session = system.sessions[3]
        assert session.current == 1
        seen = []
        for _round in range(4):
            system.crash(3)
            kernel.run(until=kernel.now + 20)
            record = kernel.run(system.power_on(3))
            assert record.succeeded
            seen.append(record.session_number)
            kernel.run(until=kernel.now + 60)
        # Numbers cycle within 1..3, never 0.
        assert all(1 <= number <= 3 for number in seen)
        assert len(set(seen)) >= 2

    def test_zero_never_assigned(self):
        config = RowaaConfig(session_modulus=2)
        kernel, system = build_system(rowaa_config=config)
        for _round in range(5):
            system.crash(2)
            kernel.run(until=kernel.now + 20)
            record = kernel.run(system.power_on(2))
            assert record.session_number != 0
            kernel.run(until=kernel.now + 60)

    def test_recycled_sessions_still_reject_stale_views(self):
        """Even with recycling, consecutive sessions differ, so a view
        from the immediately preceding session always mismatches."""
        config = RowaaConfig(session_modulus=4)
        kernel, system = build_system(rowaa_config=config, detection_delay=2.0)
        before = system.sessions[3].current
        system.crash(3)
        kernel.run(until=kernel.now + 20)
        record = kernel.run(system.power_on(3))
        assert record.session_number != before

    def test_modulus_too_small_rejected(self):
        from repro.core.session import SessionManager

        with pytest.raises(ValueError):
            SessionManager(None, None, modulus=1)  # type: ignore[arg-type]


class TestReadPreference:
    def test_local_reads_cost_no_messages(self):
        kernel, system = build_system(seed=33)
        kernel.run(system.submit(1, write_program("X", 1)))
        before = system.cluster.network.stats.sent
        kernel.run(system.submit(1, read_program("X")))
        assert system.cluster.network.stats.sent == before


class TestMessageLossSafety:
    def test_safe_under_lossy_network(self):
        """With 5% message loss, transactions abort more (timeouts) but
        nothing inconsistent ever commits."""
        from repro.core import RowaaSystem
        from repro.net import ConstantLatency
        from repro.sim import Kernel
        from repro.txn import TxnConfig

        kernel = Kernel(seed=44)
        system = RowaaSystem(
            kernel, n_sites=3, items={"X": 0, "Y": 0},
            latency=ConstantLatency(1.0), detection_delay=5.0,
            loss_probability=0.05,
            config=TxnConfig(rpc_timeout=15.0),
        )
        system.boot()

        def increment(ctx):
            value = yield from ctx.read("X")
            yield from ctx.write("X", value + 1)

        committed = 0
        from repro.errors import TransactionAborted

        for round_no in range(30):
            site = 1 + round_no % 3
            try:
                kernel.run(system.tms[site].submit(increment))
                committed += 1
            except TransactionAborted:
                pass
            kernel.run(until=kernel.now + 5)
        kernel.run(until=kernel.now + 500)  # let in-doubt states resolve
        system.stop()
        kernel.run(until=kernel.now + 10)
        assert committed > 0
        verdict = check_one_sr(system.recorder, item_filter=db_item_filter)
        assert verdict.ok, verdict
        # Final value reflects exactly the committed increments on every
        # copy that holds the latest version.
        values = {system.copy_value(s, "X") for s in (1, 2, 3)}
        assert committed in values
