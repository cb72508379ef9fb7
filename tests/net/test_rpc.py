"""Unit tests for the RPC layer."""

import traceback

import pytest

from repro.errors import RpcTimeout, SessionMismatch
from repro.net import ConstantLatency, Network, RemoteError, RpcNode
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


class TestCalls:
    def test_plain_handler_roundtrip(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("echo", lambda payload, src: (payload, src))

        result = kernel.run(a.call(2, "echo", "hi"))
        assert result == ("hi", 1)
        assert kernel.now == 2.0  # one hop out, one hop back

    def test_generator_handler_can_block(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)

        def slow(payload, src):
            yield kernel.timeout(5)
            return payload * 2

        b.register("slow", slow)
        assert kernel.run(a.call(2, "slow", 21)) == 42
        assert kernel.now == 7.0

    def test_protocol_error_propagates_as_is(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)

        def reject(payload, src):
            raise SessionMismatch(2, expected=3, actual=5)

        b.register("check", reject)
        with pytest.raises(SessionMismatch) as excinfo:
            kernel.run(a.call(2, "check"))
        assert excinfo.value.expected == 3
        assert excinfo.value.actual == 5

    def test_handler_bug_wrapped_in_remote_error(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("buggy", lambda payload, src: 1 / 0)

        with pytest.raises(RemoteError) as excinfo:
            kernel.run(a.call(2, "buggy"))
        assert isinstance(excinfo.value.original, ZeroDivisionError)

    def test_a_blocking_handler_bug_keeps_the_handler_frame(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)

        def buggy(payload, src):
            yield kernel.timeout(1)
            return 1 / 0

        b.register("buggy", buggy)
        with pytest.raises(RemoteError) as excinfo:
            kernel.run(a.call(2, "buggy"))
        original = excinfo.value.original
        assert isinstance(original, ZeroDivisionError)
        frames = [frame.name for frame in traceback.extract_tb(original.__traceback__)]
        assert frames[-1] == "buggy"

    def test_unknown_kind_fails(self, kernel, net):
        a = make_node(kernel, net, 1)
        make_node(kernel, net, 2)
        with pytest.raises(Exception, match="no handler"):
            kernel.run(a.call(2, "nothing"))

    def test_duplicate_handler_rejected(self, kernel, net):
        a = make_node(kernel, net, 1)
        a.register("x", lambda p, s: None)
        with pytest.raises(Exception, match="duplicate"):
            a.register("x", lambda p, s: None)

    def test_call_many(self, kernel, net):
        a = make_node(kernel, net, 1)
        for site in (2, 3, 4):
            node = make_node(kernel, net, site)
            node.register("id", lambda payload, src, me=site: me)

        calls = a.call_many([2, 3, 4], "id")

        def collect():
            results = []
            for dst, fut in calls:
                results.append((dst, (yield fut)))
            return results

        assert kernel.run(kernel.process(collect())) == [(2, 2), (3, 3), (4, 4)]


class TestTimeouts:
    def test_timeout_on_dead_site(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("ping", lambda p, s: "pong")
        b.stop()

        with pytest.raises(RpcTimeout):
            kernel.run(a.call(2, "ping", timeout=10))
        assert kernel.now == 10

    def test_reply_beats_timeout(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("ping", lambda p, s: "pong")

        assert kernel.run(a.call(2, "ping", timeout=10)) == "pong"
        kernel.run()  # let the timeout event fire harmlessly

    def test_late_reply_after_timeout_is_ignored(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)

        def very_slow(payload, src):
            yield kernel.timeout(100)
            return "late"

        b.register("slow", very_slow)
        with pytest.raises(RpcTimeout):
            kernel.run(a.call(2, "slow", timeout=5))
        kernel.run()  # late reply arrives, must not blow up


class TestCrashRestart:
    def test_stop_kills_in_flight_handlers(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        progress = []

        def slow(payload, src):
            yield kernel.timeout(50)
            progress.append("finished")  # must never run
            return None

        b.register("slow", slow)
        call = a.call(2, "slow", timeout=20)

        def crash_later():
            yield kernel.timeout(5)
            b.stop()

        kernel.process(crash_later())
        with pytest.raises(RpcTimeout):
            kernel.run(call)
        kernel.run()
        assert progress == []

    def test_restart_serves_again(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("ping", lambda p, s: "pong")
        b.stop()
        b.start()
        assert kernel.run(a.call(2, "ping", timeout=10)) == "pong"

    def test_start_is_idempotent(self, kernel, net):
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("ping", lambda p, s: "pong")
        b.start()
        b.start()
        assert kernel.run(a.call(2, "ping")) == "pong"

    def test_caller_crash_leaves_no_unhandled_failure(self, kernel, net):
        """A reply to a crashed caller must be swallowed silently."""
        a = make_node(kernel, net, 1)
        b = make_node(kernel, net, 2)
        b.register("ping", lambda p, s: "pong")
        a.call(2, "ping", timeout=30)

        def crash_a():
            yield kernel.timeout(0.5)
            a.stop()

        kernel.process(crash_a())
        kernel.run()  # no UnhandledFailure
