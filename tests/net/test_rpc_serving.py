"""The RPC serve path, event by event.

A request is served in one kernel event of its own (a callback that calls
the handler); only a handler that returns a generator gets a process, which
adopts the generator inside that event; a serve's end is not an event,
except for a batch sub-call, whose completion callback sends the
``rpc.batch.reply``. These tests pin the event positions a schedule-
preserving rebuild of that path must keep (ISSUE 19).
"""

from repro.harness.runner import build_scheme
from repro.net import ConstantLatency, Network, RpcNode
from repro.obs import Observability
from repro.sim import Kernel
from repro.txn.locks import LockMode
from repro.txn.payloads import WriteRequest
from tests.net.test_rpc_batching import gather


def make_nodes(kernel, obs=None, n=2):
    net = Network(kernel, latency=ConstantLatency(1.0))
    nodes = [RpcNode(kernel, net, site_id, obs) for site_id in range(1, n + 1)]
    for node in nodes:
        node.start()
    return net, nodes


def scripted_exchange(spans):
    """Plain, yielding, failing and batched calls; returns the kernel."""
    kernel = Kernel(seed=5)
    obs = Observability(kernel, spans=spans)
    _net, (a, b) = make_nodes(kernel, obs)
    root = obs.spans.start("root", "txn", 1).span_id if spans else None

    def slow(payload, src):
        yield kernel.timeout(3)
        return payload

    b.register("plain", lambda payload, src: payload)
    b.register("slow", slow)
    b.register("buggy", lambda payload, src: 1 / 0)
    b.register("dm.prepare", lambda payload, src: True)
    b.register("dm.commit", slow)
    futures = [
        a.call(2, "plain", 1, span_parent=root),
        a.call(2, "slow", 2, span_parent=root),
        a.call(2, "dm.prepare", 3, timeout=30, span_parent=root),
        a.call(2, "dm.commit", 4, timeout=30, span_parent=root),
        a.call(1, "plain", 5, span_parent=root),  # no handler at site 1
        a.call(2, "buggy", 6, span_parent=root),
    ]
    for future in futures:
        future.add_callback(lambda event: None)
    kernel.run()
    assert [f.ok for f in futures] == [True, True, True, True, False, False]
    return kernel, obs


class TestEventSequence:
    def test_spans_do_not_change_the_event_count(self):
        plain, _ = scripted_exchange(spans=False)
        traced, obs = scripted_exchange(spans=True)
        assert traced.events_processed == plain.events_processed
        serve_spans = [s for s in obs.spans.spans if s.category == "serve"]
        assert len(serve_spans) == 5 and all(s.end is not None for s in serve_spans)

    def test_a_plain_serve_costs_one_event_and_a_yielding_one_its_resumes(self):
        def events_for(make_handler):
            kernel = Kernel(seed=5)
            _net, (a, b) = make_nodes(kernel)
            b.register("op", make_handler(kernel))
            kernel.run()  # the inbox drains start and park on their endpoints
            before = kernel.events_processed
            assert kernel.run(a.call(2, "op", 7)) == 7
            return kernel.events_processed - before

        def yielding(kernel):
            def handler(payload, src):
                yield kernel.timeout(0)
                return payload

            return handler

        plain = events_for(lambda kernel: lambda payload, src: payload)
        # request delivery, inbox wake-up, the serve, reply delivery,
        # inbox wake-up, the call future.
        assert plain == 6
        # ... plus the timeout that resumes it: no start, no completion.
        assert events_for(yielding) == plain + 1


class TestHandlerTable:
    def test_a_generator_swapped_in_for_a_plain_handler_is_driven(self):
        kernel = Kernel(seed=5)
        _net, (a, b) = make_nodes(kernel)
        b.register("op", lambda payload, src: "plain")
        assert kernel.run(a.call(2, "op")) == "plain"

        def stall(payload, src):
            yield kernel.timeout(50)
            return "generator"

        b._handlers["op"] = stall  # what fault-injection tests do
        started = kernel.now
        assert kernel.run(a.call(2, "op")) == "generator"
        assert kernel.now == started + 52
        assert not b._servers


class TestBatchReplyPosition:
    def test_the_batch_reply_leaves_one_event_after_the_last_sub_call(self):
        """Site 2 receives, in one instant, a read and then a batch of
        three plain 2PC calls. The read's reply is sent from the read's
        own serve event; the batch's single reply is sent from the
        completion callback of its last sub-call — so a second read
        dispatched right behind the batch still answers *before* the
        batch does, exactly as when every serve was a process whose
        completion event carried the batch bookkeeping."""
        kernel = Kernel(seed=5)
        net, (a, b) = make_nodes(kernel)
        b.register("dm.read", lambda payload, src: payload)
        b.register("dm.prepare", lambda payload, src: payload * 10)
        sent = []
        real_send = net.send
        net.send = lambda msg: (sent.append((kernel.now, msg.src, msg.kind)), real_send(msg))[1]

        first = a.call(2, "dm.read", "r1")
        prepares = [a.call(2, "dm.prepare", n, timeout=30) for n in (1, 2, 3)]
        # Issued in the flush's instant but after it, so it arrives behind
        # the batch envelope.
        later = []
        kernel.call_soon(lambda: later.append(a.call(2, "dm.read", "r2")))
        assert gather(kernel, [first, *prepares]) == ["r1", 10, 20, 30]
        assert kernel.run(later[0]) == "r2"

        from_b = [(when, kind) for when, src, kind in sent if src == 2]
        assert from_b == [
            (1.0, "dm.read.reply"),
            (1.0, "dm.read.reply"),
            (1.0, "rpc.batch.reply"),
        ]
        assert net.stats.by_kind["rpc.batch.reply"] == 1
        assert net.stats.by_kind["dm.prepare.reply"] == 0


class TestCrashWindow:
    """A site crashed in the instant a request was dispatched (the inbox
    drain has scheduled its serve) but not yet started."""

    @staticmethod
    def _crash_between_dispatch_and_start(kernel, crash):
        # Scheduled right behind the send's delivery callback: at the
        # arrival instant the queue holds [deliver, this]; the delivery
        # wakes the inbox drain (behind this), this schedules the crash
        # (behind the wake-up), the drain schedules the serve (behind the
        # crash). So: deliver, wake-up + dispatch, crash, serve.
        kernel.call_soon(lambda: kernel.call_soon(crash), delay=1.0)

    def test_plain_handler_still_runs_and_nothing_is_replied(self):
        kernel = Kernel(seed=5)
        net, (a, b) = make_nodes(kernel)
        ran = []
        b.register("op", lambda payload, src: ran.append(kernel.now))
        future = a.call(2, "op", timeout=10)
        self._crash_between_dispatch_and_start(kernel, b.stop)
        kernel.run(until=5)
        assert ran == [1.0]  # the first step keeps its heap position
        assert not b._servers
        assert net.stats.dropped_src_down == 1  # the reply never left
        assert net.stats.by_kind["op.reply"] == 1 and net.stats.delivered == 1
        assert not future.triggered

    def test_yielding_handler_is_interrupted_in_the_same_instant(self):
        kernel = Kernel(seed=5)
        net, (a, b) = make_nodes(kernel)
        trace = []

        def handler(payload, src):
            trace.append(("started", kernel.now))
            try:
                yield kernel.timeout(100)
            finally:
                trace.append(("torn down", kernel.now))

        b.register("op", handler)
        a.call(2, "op", timeout=10)
        self._crash_between_dispatch_and_start(kernel, b.stop)
        kernel.run(until=1.0)
        assert trace == [("started", 1.0), ("torn down", 1.0)]
        assert not b._servers
        assert net.stats.sent == 1  # the request; no reply was even attempted

    def test_privileged_write_at_a_site_crashing_under_it(self):
        """The full stack. A privileged (control-transaction) write skips
        the operational check, so the serve that starts after the crash
        is admitted by the freshly reset DM: it opens a participation,
        is granted the X lock, and buffers the intent before the pending
        lock wake-up; the interrupt delivered in the same instant kills
        the serving process, and what it leaves behind — a held lock and
        a participation at a DOWN site — stays until the orphan watch or
        the next crash/recovery clears it. Pinned as the behaviour of
        the process-per-serve path this one replaced (ROADMAP item 5
        records it as a finding for the crash-point sweep)."""
        kernel, system = build_scheme("rowaa", 11, 3, {"X": 0, "Y": 0})
        kernel.run(until=5)
        site = system.cluster.site(3)
        dm = system.dms[3]
        rpc1 = system.cluster.site(1).rpc
        sent_before = system.cluster.network.stats.by_kind["dm.write.reply"]
        request = WriteRequest(
            txn_id="C1", txn_seq=1, kind="control", item="X", value=9, privileged=True,
        )
        future = rpc1.call(3, "dm.write", request, timeout=30)
        latency = system.cluster.network.latency.sample(None)
        kernel.call_soon(
            lambda: kernel.call_soon(system.cluster.crash_site, 3), delay=latency
        )
        kernel.run(until=kernel.now + latency)

        assert site.is_down
        assert not site.rpc._servers  # no serving process outlives the instant
        stats = system.cluster.network.stats
        assert stats.by_kind["dm.write.reply"] == sent_before  # nothing replied
        assert not future.triggered
        assert EXPECTED_AFTER_CRASH_WINDOW == {
            "participations": sorted(dm._participations),
            "holds_x": dm.lock_manager.holds("C1", "X", LockMode.X),
            "waiting": sorted(dm.lock_manager.waiting_txns()),
        }


#: Taken from a run of the test above at the parent commit (4a7ee03).
EXPECTED_AFTER_CRASH_WINDOW = {
    "participations": ["C1"],
    "holds_x": True,
    "waiting": [],
}


def outcome(future):
    if not future.triggered:
        return "pending"
    return ("ok", future.value) if future.ok else type(future.exception).__name__


class TestReceiveCrashWindow:
    """A stop in the instant between a delivery and the inbox wake-up it
    scheduled. The expected outcomes were recorded at the parent commit
    (a6c9c32), where the inbox was drained by a dispatcher process: its
    getter future carried the message in hand and still dispatched it
    after the stop."""

    @staticmethod
    def _echo_site(kernel):
        net, (a, b) = make_nodes(kernel)
        ran = []
        b.register("op", lambda payload, src: ran.append((payload, kernel.now)) or payload)
        return net, a, b, ran

    def test_the_message_in_hand_is_dispatched_after_a_stop(self):
        kernel = Kernel(seed=5)
        net, a, b, ran = self._echo_site(kernel)
        first = a.call(2, "op", 1, timeout=10)
        # Behind the delivery, ahead of the wake-up it schedules.
        kernel.call_soon(b.stop, delay=1.0)
        kernel.run(until=20)
        b.start()
        second = a.call(2, "op", 2, timeout=10)
        kernel.run(until=40)
        assert {
            "ran": ran, "first": outcome(first), "second": outcome(second),
            "servers": dict(b._servers), "running": b.running,
            "stats": {k: v for k, v in net.stats.snapshot().items() if v},
        } == {
            # Served at its wake-up although the site was down; the reply
            # could not leave, so the caller timed out.
            "ran": [(1, 1.0), (2, 21.0)], "first": "RpcTimeout", "second": ("ok", 2),
            "servers": {}, "running": True,
            "stats": {
                "sent": 4, "delivered": 3, "dropped_src_down": 1,
                "bytes_sent": 256, "bytes_delivered": 192,
                "by_kind": {"op": 2, "op.reply": 2},
                "delivered_by_kind": {"op": 2, "op.reply": 1},
            },
        }

    def test_stop_and_start_in_one_instant_with_messages_queued(self):
        kernel = Kernel(seed=5)
        net, a, b, ran = self._echo_site(kernel)
        # Three requests arrive at t=1: the first wakes the drain, the
        # other two queue behind it; then the site restarts; then a
        # fourth arrives, before either incarnation takes its next step.
        calls = [a.call(2, "op", n, timeout=10) for n in (1, 2, 3)]

        def restart():
            b.stop()
            b.start()

        kernel.call_soon(restart, delay=1.0)
        calls.append(a.call(2, "op", 4, timeout=10))
        kernel.run(until=20)
        calls.append(a.call(2, "op", 5, timeout=10))
        kernel.run(until=40)
        assert {
            "ran": ran, "calls": [outcome(f) for f in calls],
            "servers": dict(b._servers), "running": b.running,
            "stats": {k: v for k, v in net.stats.snapshot().items() if v},
        } == {
            # The stop dropped the two queued requests; the old wake-up
            # dispatched its own and the one delivered after the restart,
            # and the new incarnation parked for the fifth.
            "ran": [(1, 1.0), (4, 1.0), (5, 21.0)],
            "calls": [("ok", 1), "RpcTimeout", "RpcTimeout", ("ok", 4), ("ok", 5)],
            "servers": {}, "running": True,
            "stats": {
                "sent": 8, "delivered": 8, "bytes_sent": 512, "bytes_delivered": 512,
                "by_kind": {"op": 5, "op.reply": 3},
                "delivered_by_kind": {"op": 5, "op.reply": 3},
            },
        }
