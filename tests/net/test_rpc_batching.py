"""Unit tests for 2PC call batching at the RPC layer.

Calls whose kind is in ``BATCH_KINDS`` bound for a remote site are
parked per destination and flushed on a kernel microtask, so every
prepare/commit/abort issued within one timestep to the same site rides
a single ``rpc.batch`` envelope (see ``net/rpc.py``).
"""

import pytest

from repro.errors import SessionMismatch
from repro.net import ConstantLatency, Network, RpcNode
from repro.sim import Kernel


@pytest.fixture
def kernel():
    return Kernel(seed=5)


@pytest.fixture
def net(kernel):
    return Network(kernel, latency=ConstantLatency(1.0))


def make_node(kernel, net, site_id):
    node = RpcNode(kernel, net, site_id)
    node.start()
    return node


def gather(kernel, futures):
    def waiter():
        results = []
        for future in futures:
            results.append((yield future))
        return results

    return kernel.run(kernel.process(waiter(), name="gather"))


class TestCoalescing:
    def test_same_timestep_calls_ride_one_envelope(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("dm.prepare", lambda payload, src: payload * 10)

        futures = [a.call(2, "dm.prepare", n, timeout=30) for n in (1, 2, 3)]
        assert gather(kernel, futures) == [10, 20, 30]
        assert a.stats_batches == 1
        assert a.stats_batched_calls == 3
        assert net.stats.by_kind["rpc.batch"] == 1
        assert net.stats.by_kind["dm.prepare"] == 0

    def test_single_call_degenerates_to_plain_message(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("dm.prepare", lambda payload, src: True)

        assert kernel.run(a.call(2, "dm.prepare", None, timeout=30)) is True
        assert a.stats_batches == 0
        assert net.stats.by_kind["rpc.batch"] == 0
        assert net.stats.by_kind["dm.prepare"] == 1

    def test_non_2pc_kinds_are_never_batched(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("dm.read", lambda payload, src: payload)

        futures = [a.call(2, "dm.read", n, timeout=30) for n in (1, 2)]
        assert gather(kernel, futures) == [1, 2]
        assert a.stats_batches == 0
        assert net.stats.by_kind["dm.read"] == 2

    def test_local_calls_are_never_batched(self, kernel, net):
        a = make_node(kernel, net, 1)
        a.register("dm.prepare", lambda payload, src: payload)

        futures = [a.call(1, "dm.prepare", n) for n in (1, 2)]
        assert gather(kernel, futures) == [1, 2]
        assert a.stats_batches == 0

    def test_decisions_piggyback_on_prepare_traffic(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("dm.prepare", lambda payload, src: True)
        b.register("dm.commit", lambda payload, src: True)
        b.register("dm.abort", lambda payload, src: True)

        futures = [
            a.call(2, "dm.prepare", "T2", timeout=30),
            a.call(2, "dm.commit", "T1", timeout=30),
            a.call(2, "dm.abort", "T0", timeout=30),
        ]
        assert gather(kernel, futures) == [True, True, True]
        assert a.stats_batches == 1
        assert a.stats_batched_calls == 3
        assert a.stats_decisions_piggybacked == 2


class TestBatchSemantics:
    def test_per_subcall_errors_propagate_independently(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)

        def picky(payload, src):
            if payload == "bad":
                raise SessionMismatch(2, expected=1, actual=9)
            return payload

        b.register("dm.prepare", picky)
        good = a.call(2, "dm.prepare", "ok", timeout=30)
        bad = a.call(2, "dm.prepare", "bad", timeout=30)

        def waiter():
            value = yield good
            try:
                yield bad
            except SessionMismatch as exc:
                return (value, exc.actual)
            return (value, None)

        assert kernel.run(kernel.process(waiter(), name="w")) == ("ok", 9)
        assert a.stats_batches == 1

    def test_immediate_send_flushes_parked_batch_first(self, kernel, net):
        """Per-destination FIFO: a non-batched call issued after a parked
        decision must not overtake it on the wire."""
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        order = []
        b.register("dm.commit", lambda payload, src: order.append("commit"))
        b.register("dm.read", lambda payload, src: order.append("read"))

        futures = [
            a.call(2, "dm.commit", None, timeout=30),
            a.call(2, "dm.read", None, timeout=30),
        ]
        gather(kernel, futures)
        assert order == ["commit", "read"]

    def test_generator_subhandlers_answered_in_one_reply(self, kernel, net):
        """The batch reply waits for the slowest sub-call; blocked
        handlers do not lose their slot."""
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)

        def slow(payload, src):
            yield kernel.timeout(payload)
            return payload

        b.register("dm.prepare", slow)
        futures = [a.call(2, "dm.prepare", n, timeout=60) for n in (5, 1)]
        assert gather(kernel, futures) == [5, 1]
        # One envelope out, one reply back, after the 5-unit handler.
        assert net.stats.by_kind["rpc.batch"] == 1
        assert net.stats.by_kind["rpc.batch.reply"] == 1
        assert kernel.now == pytest.approx(7.0)  # 1 out + 5 serve + 1 back

    def test_calls_in_different_timesteps_do_not_coalesce(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("dm.prepare", lambda payload, src: payload)

        def driver():
            first = yield a.call(2, "dm.prepare", 1, timeout=30)
            yield kernel.timeout(1)
            second = yield a.call(2, "dm.prepare", 2, timeout=30)
            return (first, second)

        assert kernel.run(kernel.process(driver(), name="d")) == (1, 2)
        assert a.stats_batches == 0
        assert net.stats.by_kind["dm.prepare"] == 2
