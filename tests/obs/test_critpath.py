"""Critical-path latency attribution tests (tentpole + edge cases).

Unit tests drive :func:`repro.obs.critpath.attribute_txn` over
hand-built span trees (the sweep is a pure function of the tree), the
edge-case battery covers the malformed shapes the sweep must survive
(orphaned open children, zero-duration spans, out-of-order finishes),
and the end-to-end test checks the invariant the whole module is built
around: the per-category budget sums exactly to the measured ack
latency, with the unattributed gap under the 5% acceptance bound.
"""

import types

import pytest

from repro.harness.runner import build_traced_scheme
from repro.obs.critpath import (
    CATEGORIES,
    ack_end_of,
    attribute_txn,
    committed_user_roots,
    latency_budget,
    render_latency_budget,
)
from repro.obs.spans import Span


def _span(span_id, parent_id, name, category, start, end,
          txn_id=None, **attrs):
    span = Span(span_id, parent_id, name, category, 1, start, txn_id=txn_id)
    span.end = end
    if attrs:
        span.attrs = dict(attrs)
    return span


def _children(spans):
    index = {}
    for span in spans:
        if span.parent_id is not None:
            index.setdefault(span.parent_id, []).append(span)
    return index


def _root(start=0.0, end=10.0, ack=None, **attrs):
    if ack is not None:
        attrs["ack_time"] = ack
    return _span(1, None, "txn:T1", "user", start, end,
                 txn_id="T1", status="committed", **attrs)


def _obs_over(spans):
    """A minimal Observability stand-in: just the span list."""
    return types.SimpleNamespace(spans=types.SimpleNamespace(spans=spans))


class TestAttributeTxn:
    def test_exclusive_decomposition_sums_to_total(self):
        # lock 0-3, prepare rpc 3-6 with a serve 4-5 inside, rest bare.
        spans = [
            _root(0.0, 10.0, ack=10.0),
            _span(2, 1, "lock-wait:X", "lock", 0.0, 3.0),
            _span(3, 1, "2pc", "2pc", 3.0, 10.0),
            _span(4, 3, "rpc:dm.prepare", "rpc", 3.0, 6.0),
            _span(5, 4, "serve:dm.prepare", "serve", 4.0, 5.0),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["lock_wait"] == 3.0
        # The whole prepare round is the quorum wait — its serve child
        # ranks below it, so the hole does not split out as execution.
        assert charges["prepare_wait"] == 3.0
        assert charges["execution"] == 0.0
        assert charges["unattributed"] == 4.0  # 6-10, nothing covers it
        assert charges["total"] == 10.0
        parts = [charges[name] for name in CATEGORIES]
        assert sum(parts) + charges["unattributed"] == charges["total"]

    def test_ro_serve_bucket_takes_whole_snapshot_round(self):
        # A read-only txn's snapshot-read round: both the rpc and its
        # serve span map to ro_serve (service *and* transit), so the
        # whole ack latency of a lock-free RO txn lands in one bucket.
        spans = [
            _root(0.0, 6.0, ack=6.0),
            _span(2, 1, "rpc:dm.read_snapshot", "rpc", 0.0, 6.0),
            _span(3, 2, "serve:dm.read_snapshot", "serve", 2.0, 4.0),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["ro_serve"] == 6.0
        assert charges["network"] == 0.0
        assert charges["lock_wait"] == 0.0
        assert charges["unattributed"] == 0.0
        parts = [charges[name] for name in CATEGORIES]
        assert sum(parts) == charges["total"] == 6.0

    def test_priority_lock_wins_inside_serve(self):
        # A remote lock wait inside a serve inside an rpc: the instant
        # charges to the most specific category, not the container.
        spans = [
            _root(0.0, 8.0, ack=8.0),
            _span(2, 1, "rpc:dm.write", "rpc", 0.0, 8.0),
            _span(3, 2, "serve:dm.write", "serve", 2.0, 6.0),
            _span(4, 3, "lock-wait:X", "lock", 3.0, 5.0),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["lock_wait"] == 2.0
        assert charges["execution"] == 2.0
        assert charges["network"] == 4.0
        assert charges["unattributed"] == 0.0

    def test_clipping_to_ack_window(self):
        # Spans leaking past the ack moment (a background commit round)
        # only charge their in-window part.
        spans = [
            _root(2.0, 20.0, ack=10.0),
            _span(2, 1, "rpc:dm.write", "rpc", 0.0, 14.0),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["network"] == 8.0  # clipped to [2, 10]
        assert charges["total"] == 8.0

    def test_decision_broadcast_and_quorum_buckets(self):
        spans = [
            _root(0.0, 6.0, ack=6.0),
            _span(2, 1, "rpc:dm.prepare", "rpc", 0.0, 2.0),
            _span(3, 1, "rpc:dm.commit", "rpc", 2.0, 5.0),
            _span(4, 1, "rpc:dm.abort", "rpc", 5.0, 6.0),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["prepare_wait"] == 2.0
        assert charges["decision_broadcast"] == 4.0


class TestEdgeCases:
    def test_orphaned_open_child_lands_in_unattributed(self):
        # A child whose end is None (its finisher died with the site)
        # must not crash the sweep; it simply covers nothing.
        spans = [
            _root(0.0, 10.0, ack=10.0),
            _span(2, 1, "rpc:dm.write", "rpc", 1.0, None),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["network"] == 0.0
        assert charges["unattributed"] == 10.0

    def test_zero_duration_span_ignored(self):
        spans = [
            _root(0.0, 4.0, ack=4.0),
            _span(2, 1, "rpc:dm.write", "rpc", 2.0, 2.0),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["unattributed"] == 4.0

    def test_out_of_order_finish_ignored(self):
        # end < start (a clock bug upstream) covers nothing, no crash.
        spans = [
            _root(0.0, 4.0, ack=4.0),
            _span(2, 1, "rpc:dm.write", "rpc", 3.0, 1.0),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["network"] == 0.0
        assert charges["unattributed"] == 4.0

    def test_drain_subtree_excluded(self):
        # Background drains start at the decision; their RPC children
        # must not soak up window time.
        spans = [
            _root(0.0, 5.0, ack=5.0),
            _span(2, 1, "drain", "drain", 1.0, 5.0),
            _span(3, 2, "rpc:dm.commit", "rpc", 1.0, 5.0),
        ]
        charges = attribute_txn(spans[0], _children(spans))
        assert charges["decision_broadcast"] == 0.0
        assert charges["unattributed"] == 5.0

    def test_unmeasurable_root_returns_none(self):
        root = _span(1, None, "txn:T1", "user", 0.0, None,
                     txn_id="T1", status="committed")
        assert attribute_txn(root, {}) is None

    def test_ack_end_fallback_chain(self):
        # Explicit ack_time wins; then the 2pc child's end; then root.end.
        two_pc = _span(2, 1, "2pc", "2pc", 1.0, 7.0)
        children = {1: [two_pc]}
        assert ack_end_of(_root(0.0, 9.0, ack=8.0), children) == 8.0
        assert ack_end_of(_root(0.0, 9.0), children) == 7.0
        assert ack_end_of(_root(0.0, 9.0), {}) == 9.0


class TestLatencyBudget:
    def test_only_committed_user_roots_counted(self):
        spans = [
            _root(0.0, 10.0, ack=10.0),
            _span(2, None, "txn:T2", "user", 0.0, 3.0,
                  txn_id="T2", status="aborted"),
            _span(3, None, "txn:C1", "control", 0.0, 5.0, txn_id="C1"),
        ]
        obs = _obs_over(spans)
        assert [s.txn_id for s in committed_user_roots(obs.spans)] == ["T1"]
        budget = latency_budget(obs)
        assert budget["txns"] == 1
        assert budget["total"] == 10.0

    def test_gap_flagged_above_threshold(self):
        budget = latency_budget(_obs_over([_root(0.0, 10.0, ack=10.0)]))
        assert budget["gap_fraction"] == 1.0
        assert not budget["gap_ok"]
        assert "UNATTRIBUTED GAP" in render_latency_budget(budget)

    def test_empty_recorder_renders(self):
        budget = latency_budget(_obs_over([]))
        assert budget["txns"] == 0
        assert budget["gap_ok"]
        assert "0 committed user txns" in render_latency_budget(budget)


def _write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


class TestEndToEnd:
    @pytest.mark.parametrize("mode", ["sync_2pc", "async_quorum"])
    def test_budget_sums_to_measured_ack_latency(self, mode):
        from repro.txn.config import TxnConfig

        kernel, system = build_traced_scheme(
            "rowaa", 7, 3, {"X": 0, "Y": 0},
            txn_config=TxnConfig(commit_mode=mode),
        )
        obs = system.obs
        kernel.run(system.submit(1, _write_program("X", 1)))
        kernel.run(system.submit(1, _write_program("Y", 2)))
        kernel.run(until=kernel.now + 200.0)  # let async drains finish
        system.stop()
        obs.spans.finish_open()

        budget = latency_budget(obs)
        measured = [
            latency
            for tm in system.tms.values()
            for latency in tm.stats.ack_latencies
        ]
        assert budget["txns"] == len(measured) == 2
        assert budget["total"] == pytest.approx(sum(measured))
        shares = [
            entry["share"] for entry in budget["categories"].values()
        ]
        assert sum(shares) == pytest.approx(1.0)
        assert budget["gap_fraction"] < 0.05
        assert budget["gap_ok"]
