"""Tie-break policies: canonical identity, shuffle determinism, replay."""

import pytest

from repro.sanitize.policy import (
    DirectedPolicy,
    ScheduleSpec,
    ShufflePolicy,
    TieBreakPolicy,
    attach_policy,
    directed_spec,
    sparse_decisions,
)
from repro.sim.kernel import Kernel


def run_tagged(spec=None, seed=0, groups=((0.0, 4), (1.0, 3), (1.0, 2))):
    """Schedule tagged same-instant callback groups; return execution order.

    ``groups`` is (time, count) — each group schedules ``count`` callbacks
    at that time, so same-time groups merge into one tie batch.
    """
    kernel = Kernel(seed=seed)
    order: list[str] = []
    tag = 0
    for when, count in groups:
        for _ in range(count):
            name = f"cb{tag}"
            tag += 1
            kernel.schedule_callback(when, order.append, name)
    policy = attach_policy(kernel, spec) if spec is not None else None
    kernel.run()
    return order, (list(policy.decisions) if policy is not None else None)


class TestCanonicalIdentity:
    def test_canonical_policy_reproduces_fifo(self):
        plain, _ = run_tagged(None)
        canonical, decisions = run_tagged(ScheduleSpec(mode="canonical"))
        assert canonical == plain
        assert decisions is not None and set(decisions) <= {0}

    def test_batches_of_one_are_not_choice_points(self):
        _, decisions = run_tagged(
            ScheduleSpec(mode="canonical"),
            groups=((0.0, 1), (1.0, 1), (2.0, 1)),
        )
        assert decisions == []

    def test_cancelled_entries_never_join_a_batch(self):
        kernel = Kernel(seed=0)
        order: list[str] = []
        live = kernel.schedule_callback(1.0, order.append, "live")
        dead = kernel.schedule_callback(1.0, order.append, "dead")
        dead.cancel()
        policy = attach_policy(kernel, ScheduleSpec(mode="canonical"))
        kernel.run()
        assert order == ["live"]
        assert policy.decisions == []  # a batch of one live entry
        assert live.cancelled is False


class TestShuffle:
    def test_same_seed_same_salt_is_deterministic(self):
        a, da = run_tagged(ScheduleSpec(mode="shuffle", salt=3))
        b, db = run_tagged(ScheduleSpec(mode="shuffle", salt=3))
        assert a == b
        assert da == db

    def test_different_salts_draw_independent_streams(self):
        orders = {
            tuple(run_tagged(ScheduleSpec(mode="shuffle", salt=salt),
                             groups=((0.0, 6), (1.0, 6)))[0])
            for salt in range(1, 9)
        }
        assert len(orders) > 1  # at least one salt perturbs the order

    def test_shuffle_is_a_permutation(self):
        plain, _ = run_tagged(None)
        shuffled, _ = run_tagged(ScheduleSpec(mode="shuffle", salt=1))
        assert sorted(shuffled) == sorted(plain)


class TestDirectedReplay:
    def test_replaying_recorded_decisions_is_byte_identical(self):
        shuffled, decisions = run_tagged(ScheduleSpec(mode="shuffle", salt=2))
        plan = sparse_decisions(decisions)
        replayed, replay_decisions = run_tagged(directed_spec(plan))
        assert replayed == shuffled
        assert replay_decisions == decisions

    def test_out_of_range_choice_clamps_to_last_index(self):
        policy = DirectedPolicy({0: 99})
        assert policy.choose(3) == 2
        assert policy.choose(3) == 0  # past the plan: canonical

    def test_dense_and_sparse_plans_agree(self):
        dense = DirectedPolicy([0, 2, 0, 1])
        sparse = DirectedPolicy({1: 2, 3: 1})
        assert [dense.choose(4) for _ in range(4)] == \
               [sparse.choose(4) for _ in range(4)]


class TestScheduleSpec:
    def test_json_round_trip(self):
        spec = directed_spec({3: 1, 7: 2})
        assert ScheduleSpec.from_json(spec.to_json()) == spec

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            ScheduleSpec(mode="chaos").build(Kernel(seed=0))

    def test_build_modes(self):
        kernel = Kernel(seed=0)
        assert type(ScheduleSpec(mode="canonical").build(kernel)) \
            is TieBreakPolicy
        assert isinstance(ScheduleSpec(mode="shuffle", salt=1).build(kernel),
                          ShufflePolicy)
        assert isinstance(directed_spec({0: 1}).build(kernel), DirectedPolicy)


class TestDefaultPathUntouched:
    def test_detaching_restores_plain_run(self):
        kernel = Kernel(seed=0)
        attach_policy(kernel, ScheduleSpec(mode="shuffle", salt=1))
        kernel.probes.tiebreak.clear()
        order: list[str] = []
        for index in range(5):
            kernel.schedule_callback(1.0, order.append, f"cb{index}")
        kernel.run()
        assert order == [f"cb{i}" for i in range(5)]
