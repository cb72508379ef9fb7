"""Unit tests for the network fabric and latency models."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    ConstantLatency,
    ExponentialLatency,
    Message,
    Network,
    UniformLatency,
)
from repro.sim import Kernel


@pytest.fixture
def kernel():
    return Kernel(seed=11)


@pytest.fixture
def net(kernel):
    network = Network(kernel, latency=ConstantLatency(2.0))
    for site in (1, 2, 3):
        network.attach(site)
    return network


def recv_one(kernel, net, site_id):
    """Helper: park a receiver on ``site_id``, run, return what it took."""
    got = []
    net.endpoint(site_id).receive(got.append)
    kernel.run()
    assert len(got) == 1
    return got[0]


class TestLatencyModels:
    def test_constant(self, kernel):
        model = ConstantLatency(3.5)
        assert model.sample(kernel.rng.stream("x")) == 3.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_within_bounds(self, kernel):
        model = UniformLatency(1.0, 2.0)
        rng = kernel.rng.stream("x")
        for _ in range(100):
            assert 1.0 <= model.sample(rng) <= 2.0

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 1.0)

    def test_exponential_above_floor(self, kernel):
        model = ExponentialLatency(floor=0.5, mean=1.0)
        rng = kernel.rng.stream("x")
        for _ in range(100):
            assert model.sample(rng) >= 0.5

    def test_exponential_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ExponentialLatency(floor=-1, mean=1)
        with pytest.raises(ValueError):
            ExponentialLatency(floor=0, mean=0)


class TestDelivery:
    def test_message_arrives_after_latency(self, kernel, net):
        net.send(Message(src=1, dst=2, kind="ping", payload="hello"))
        msg = recv_one(kernel, net, 2)
        assert msg.payload == "hello"
        assert kernel.now == 2.0

    def test_messages_have_unique_ids(self):
        a = Message(src=1, dst=2, kind="x")
        b = Message(src=1, dst=2, kind="x")
        assert a.msg_id != b.msg_id

    def test_send_to_unattached_site_raises(self, kernel, net):
        with pytest.raises(NetworkError):
            net.send(Message(src=1, dst=99, kind="ping"))

    def test_down_destination_drops(self, kernel, net):
        net.endpoint(2).go_down()
        net.send(Message(src=1, dst=2, kind="ping"))
        kernel.run()
        assert net.stats.dropped_dst_down == 1
        assert len(net.endpoint(2).inbox) == 0

    def test_crash_mid_flight_drops(self, kernel, net):
        """A message in flight when the destination crashes is lost."""
        net.send(Message(src=1, dst=2, kind="ping"))
        kernel.run(until=1.0)  # latency is 2.0; crash at t=1
        net.endpoint(2).go_down()
        kernel.run()
        assert net.stats.dropped_dst_down == 1

    def test_down_source_cannot_send(self, kernel, net):
        net.endpoint(1).go_down()
        net.send(Message(src=1, dst=2, kind="ping"))
        kernel.run()
        assert net.stats.dropped_src_down == 1
        assert net.stats.delivered == 0

    def test_recovered_destination_receives_again(self, kernel, net):
        net.endpoint(2).go_down()
        net.endpoint(2).go_up()
        net.send(Message(src=1, dst=2, kind="ping"))
        assert recv_one(kernel, net, 2).kind == "ping"

    def test_go_down_clears_inbox(self, kernel, net):
        net.send(Message(src=1, dst=2, kind="stale"))
        kernel.run()
        assert len(net.endpoint(2).inbox) == 1
        net.endpoint(2).go_down()
        assert len(net.endpoint(2).inbox) == 0

    def test_go_down_forgets_the_parked_receiver(self, kernel, net):
        got = []
        endpoint = net.endpoint(2)
        endpoint.receive(got.append)
        endpoint.go_down()
        endpoint.go_up()
        net.send(Message(src=1, dst=2, kind="after"))
        kernel.run()
        assert got == [] and [m.kind for m in endpoint.inbox] == ["after"]

    def test_stats_by_kind(self, kernel, net):
        net.send(Message(src=1, dst=2, kind="read"))
        net.send(Message(src=1, dst=3, kind="read"))
        net.send(Message(src=2, dst=3, kind="write"))
        kernel.run()
        assert net.stats.by_kind == {"read": 2, "write": 1}
        assert net.stats.snapshot()["sent"] == 3

    def test_loss_probability(self, kernel):
        net = Network(kernel, latency=ConstantLatency(0.1), loss_probability=0.5)
        net.attach(1)
        net.attach(2)
        for _ in range(200):
            net.send(Message(src=1, dst=2, kind="ping"))
        kernel.run()
        assert net.stats.dropped_loss > 0
        assert net.stats.delivered > 0
        assert net.stats.dropped_loss + net.stats.delivered == 200

    def test_invalid_loss_probability(self, kernel):
        with pytest.raises(ValueError):
            Network(kernel, loss_probability=1.0)

    def test_fifo_between_pair_with_constant_latency(self, kernel, net):
        order = []
        endpoint = net.endpoint(2)

        def take(msg):
            # A receiver is one-shot: the first delivery wakes it, the
            # other two queue behind it and are taken by re-parking.
            order.append((kernel.now, msg.payload))
            if len(order) < 3:
                endpoint.receive(take)

        endpoint.receive(take)
        for i in range(3):
            net.send(Message(src=1, dst=2, kind="seq", payload=i))
        kernel.run()
        assert order == [(2.0, 0), (2.0, 1), (2.0, 2)]


class TestStatsAccounting:
    """The S3 conservation laws of the expanded NetworkStats."""

    def test_remote_conservation_with_loss_and_down(self, kernel):
        net = Network(kernel, latency=ConstantLatency(0.1), loss_probability=0.3)
        for site in (1, 2, 3):
            net.attach(site)
        net.endpoint(3).go_down()
        for index in range(150):
            net.send(Message(src=1, dst=2 + index % 2, kind="ping"))
        kernel.run()
        stats = net.stats
        assert stats.sent == stats.delivered + stats.dropped
        assert stats.dropped == (
            stats.dropped_dst_down + stats.dropped_src_down
            + stats.dropped_loss + stats.dropped_partition
        )
        # Local traffic is accounted on its own ledger.
        assert stats.local_sent == stats.local_delivered + stats.dropped_local_down

    def test_local_partition_of_local_sent(self, kernel, net):
        net.send(Message(src=1, dst=1, kind="self"))
        net.endpoint(2).go_down()
        net.send(Message(src=2, dst=2, kind="self"))
        kernel.run()
        assert net.stats.local_sent == 2
        assert net.stats.local_delivered == 1
        assert net.stats.dropped_local_down == 1
        assert net.stats.sent == 0  # nothing crossed the network

    def test_delivered_by_kind_and_bytes(self, kernel, net):
        for _ in range(3):
            net.send(Message(src=1, dst=2, kind="ping"))
        net.send(Message(src=1, dst=3, kind="pong"))
        kernel.run()
        snapshot = net.stats.snapshot()
        assert snapshot["delivered_by_kind"] == {"ping": 3, "pong": 1}
        assert snapshot["by_kind"] == {"ping": 3, "pong": 1}
        # Bare messages weigh exactly one envelope each.
        from repro.net.network import ENVELOPE_BYTES

        assert snapshot["bytes_sent"] == 4 * ENVELOPE_BYTES
        assert snapshot["bytes_delivered"] == 4 * ENVELOPE_BYTES

    def test_payload_wire_size_weights_bytes(self, kernel, net):
        from repro.net.network import ENVELOPE_BYTES
        from repro.txn.payloads import ReadRequest

        request = ReadRequest(txn_id="t1", txn_seq=1, kind="user", item="XYZ")
        net.send(Message(src=1, dst=2, kind="dm.read", payload=request))
        kernel.run()
        expected = ENVELOPE_BYTES + request.wire_size
        assert request.wire_size > 0
        assert net.stats.bytes_sent == expected
        assert net.stats.bytes_delivered == expected
