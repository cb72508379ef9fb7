"""Span propagation tests (tentpole + S4).

A user transaction run at one site must produce ONE root span whose tree
covers the remote work it caused: ``rpc:*`` client spans under the root
(or under its 2PC phase span), and ``serve:*`` spans on every remote
site, parented to the rpc span that carried the request — the
``span_id`` field on the message envelope is what stitches them.
"""

import pytest

from repro.errors import TransactionAborted, TransactionError
from repro.harness.runner import build_traced_scheme


def _write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


@pytest.fixture
def traced():
    kernel, system = build_traced_scheme(
        "rowaa", 7, 3, {"X": 0, "Y": 0}
    )
    obs = system.obs
    return kernel, system, obs


def _tree_of(recorder, root):
    """All spans in ``root``'s tree, by walking parent links."""
    members = {root.span_id}
    grew = True
    while grew:
        grew = False
        for span in recorder.spans:
            if span.parent_id in members and span.span_id not in members:
                members.add(span.span_id)
                grew = True
    return [span for span in recorder.spans if span.span_id in members]


class TestUserTxnPropagation:
    def test_one_root_with_remote_serve_children(self, traced):
        kernel, system, obs = traced
        kernel.run(system.submit(1, _write_program("X", 42)))
        recorder = obs.spans

        roots = [s for s in recorder.spans if s.category == "user"]
        assert len(roots) == 1
        root = roots[0]
        assert root.parent_id is None
        assert root.site_id == 1
        assert root.end is not None

        tree = _tree_of(recorder, root)
        serve_sites = {s.site_id for s in tree if s.category == "serve"}
        # Write-all: the remote DM work on sites 2 and 3 is attributed
        # to this transaction, not just the local fan-out.
        assert {2, 3} <= serve_sites

        # Every serve span hangs under an rpc client span of the tree.
        by_id = {s.span_id: s for s in tree}
        for serve in (s for s in tree if s.category == "serve"):
            parent = by_id[serve.parent_id]
            assert parent.category == "rpc"

        # The 2PC phase span nests between root and the prepare/commit RPCs.
        two_pc = [s for s in tree if s.category == "2pc"]
        assert len(two_pc) == 1
        assert two_pc[0].parent_id == root.span_id
        prepare_rpcs = [s for s in tree if s.name == "rpc:dm.prepare"]
        assert prepare_rpcs
        assert all(s.parent_id == two_pc[0].span_id for s in prepare_rpcs)

    def test_batched_ns_read_fast_path_in_tree(self, traced):
        # The implicit begin materialises the NS vector with one
        # dm.read_batch call; its serve span must land in the
        # transaction's tree.
        kernel, system, obs = traced
        kernel.run(system.submit(1, _write_program("X", 1)))
        recorder = obs.spans
        root = next(s for s in recorder.spans if s.category == "user")
        tree = _tree_of(recorder, root)
        assert any(s.name == "rpc:dm.read_batch" for s in tree)
        assert any(s.name == "serve:dm.read_batch" for s in tree)

    def test_abort_path_closes_root_with_status(self, traced):
        kernel, system, obs = traced

        def bad(ctx):
            yield from ctx.write("X", 2)
            raise TransactionError("forced")

        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(1, bad))
        recorder = obs.spans
        root = next(s for s in recorder.spans if s.category == "user")
        assert root.end is not None
        assert root.attrs["status"] == "aborted"
        # The abort's release fan-out is attributed to the same tree.
        tree = _tree_of(recorder, root)
        assert any(s.name.startswith("rpc:dm.abort") for s in tree) or any(
            s.name.startswith("rpc:dm.release") for s in tree
        )

    def test_txn_id_links_root(self, traced):
        kernel, system, obs = traced
        kernel.run(system.submit(1, _write_program("Y", 9)))
        recorder = obs.spans
        root = next(s for s in recorder.spans if s.category == "user")
        assert root.txn_id is not None
        assert recorder.root_of(root.txn_id) == root.span_id


class TestSpanHygiene:
    def test_finish_open_truncates_at_horizon(self, traced):
        kernel, system, obs = traced
        recorder = obs.spans
        kernel.run(until=5.0)
        hung = recorder.start("rpc:dm.write", "rpc", 1)
        kernel.run(until=12.0)
        closed = recorder.finish_open()
        assert closed == [hung]
        assert hung.end == 12.0
        assert hung.attrs["truncated"] is True
        # Idempotent: a second sweep (scenario backstop after quiesce)
        # closes nothing and rewrites nothing.
        kernel.run(until=20.0)
        assert recorder.finish_open() == []
        assert hung.end == 12.0

    def test_finish_open_spares_finished_spans(self, traced):
        kernel, system, obs = traced
        kernel.run(system.submit(1, _write_program("X", 3)))
        recorder = obs.spans
        assert all(s.end is not None for s in recorder.spans)
        assert recorder.finish_open() == []
        assert not any(
            s.attrs and s.attrs.get("truncated") for s in recorder.spans
        )

    def test_annotate_keeps_span_open(self, traced):
        kernel, system, obs = traced
        recorder = obs.spans
        span = recorder.start("txn:T9", "user", 1, txn_id="T9")
        recorder.annotate(span, ack_time=kernel.now)
        assert span.end is None
        assert span.attrs == {"ack_time": kernel.now}


class TestDisabledCost:
    def test_no_spans_recorded_when_disabled(self):
        from repro.harness.runner import build_scheme

        kernel, system = build_scheme("rowaa", 7, 3, {"X": 0})
        kernel.run(system.submit(1, _write_program("X", 1)))
        assert system.obs.spans.spans == []
        assert system.obs.spans.instants == []
