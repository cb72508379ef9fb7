"""Tests for the quorum-consensus baseline."""

import pytest

from repro.baselines import build_system
from repro.baselines.quorum import majority
from repro.errors import TransactionAborted
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.txn import TxnConfig


def make(kernel, n_sites=3, items=None):
    return build_system(
        "quorum",
        kernel,
        n_sites,
        items if items is not None else {"X": 0, "Y": 0},
        latency=ConstantLatency(1.0),
        detection_delay=5.0,
        config=TxnConfig(rpc_timeout=20.0),
    )


@pytest.fixture
def kernel():
    return Kernel(seed=8)


def write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


def read_program(item):
    def program(ctx):
        value = yield from ctx.read(item)
        return value

    return program


def test_majority():
    assert majority(3) == 2
    assert majority(4) == 3
    assert majority(5) == 3


class TestQuorumOperations:
    def test_roundtrip(self, kernel):
        system = make(kernel)
        kernel.run(system.submit(1, write_program("X", 5)))
        assert kernel.run(system.submit(2, read_program("X"))) == 5

    def test_survives_one_failure(self, kernel):
        system = make(kernel)
        system.crash(3)
        kernel.run(until=10)
        kernel.run(system.submit(1, write_program("X", 7)))
        assert kernel.run(system.submit(2, read_program("X"))) == 7

    def test_blocks_below_majority(self, kernel):
        system = make(kernel)
        system.crash(2)
        system.crash(3)
        kernel.run(until=10)
        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(1, write_program("X", 9)))
        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(1, read_program("X")))

    def test_stale_copy_outvoted_after_instant_rejoin(self, kernel):
        """A rejoined site's stale copy loses the version vote — quorum
        needs no recovery procedure at all."""
        system = make(kernel)
        system.crash(3)
        kernel.run(until=10)
        kernel.run(system.submit(1, write_program("X", 42)))
        system.power_on(3)  # instant: no recovery protocol
        kernel.run(until=kernel.now + 5)
        # Reads anchored at the rejoined site still see the newest value.
        assert kernel.run(system.submit(3, read_program("X"))) == 42


class TestOneWritePath:
    """The quorum write goes through ``TxnContext.send_writes`` — the one
    ``WriteRequest`` construction site — so what every other write sets
    (``written_items``, the pipelined prepare vote) is set here too. At
    the parent it hand-built its requests: ``written_items`` stayed
    empty, ``mark_missed`` computed no pairs after a lost commit ack and
    ``quorum_needed`` collapsed to 1."""

    @staticmethod
    def _finished(kernel):
        seen = []
        kernel.probes.txn_finish.append(lambda _site, txn: seen.append(txn))
        return seen

    def test_written_items_are_recorded(self, kernel):
        system = make(kernel)
        seen = self._finished(kernel)
        kernel.run(system.submit(1, write_program("X", 5)))
        (txn,) = seen
        assert txn.written_items == {"X"}
        assert txn.wrote_sites == {1, 2, 3}
        assert not txn.prepared_sites  # sync 2PC: no pipelined vote

    def _async(self, seed=8):
        from repro.audit import attach_auditor
        from repro.harness.runner import build_traced_scheme

        kernel, system = build_traced_scheme(
            "quorum", seed, 3, {"X": 0, "Y": 0},
            txn_config=TxnConfig(rpc_timeout=20.0, commit_mode="async_quorum"),
        )
        obs = system.obs
        return kernel, system, obs, attach_auditor(system)

    def test_async_quorum_commits_on_the_pipelined_path(self):
        kernel, system, obs, auditor = self._async()
        seen = self._finished(kernel)
        kernel.run(system.submit(1, write_program("X", 5)))
        kernel.run(until=kernel.now + 100)  # the drain
        (txn,) = seen
        assert txn.status.value == "committed"
        assert txn.commit_mode == "async_quorum"
        assert txn.prepared_sites == txn.wrote_sites == {1, 2, 3}
        assert txn.quorum_needed == 2
        (two_pc,) = [span for span in obs.spans.spans if span.name == "2pc"]
        assert two_pc.attrs["quorum_pipelined"] is True
        assert two_pc.attrs["prepared"] == 3
        assert not [s for s in obs.spans.spans if s.name == "rpc:dm.prepare"]
        assert auditor.alerts.count(rule="quorum.majority") == 0
        assert not auditor.alerts.has_critical
        assert system.copy_value(3, "X") == 5

    def test_forged_prepared_sites_below_threshold_still_abort(self):
        """The guard that stays: a transaction record claiming fewer
        prepared sites than the majority rule needs is not decided."""
        kernel, system, _obs, _auditor = self._async()

        def forged(ctx):
            yield from ctx.write("X", 5)
            ctx.txn.prepared_sites.intersection_update({1})

        with pytest.raises(TransactionAborted) as aborted:
            kernel.run(system.submit(1, forged))
        assert aborted.value.reason == "prepare-failed"
        kernel.run(until=kernel.now + 50)
        assert system.copy_value(1, "X") == 0
