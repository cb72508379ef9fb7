"""Tests for read preferences and safety under message loss."""

from repro.core.nominal import db_item_filter
from repro.histories import check_one_sr
from tests.core.conftest import build_system, read_program, write_program


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
