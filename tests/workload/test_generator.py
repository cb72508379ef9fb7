"""Unit tests for workload generation."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.workload import WorkloadGenerator, WorkloadSpec
from repro.workload.generator import ZipfSampler


class TestZipfSampler:
    def test_uniform_when_s_zero(self):
        sampler = ZipfSampler(10, 0.0)
        rng = random.Random(1)
        counts = [0] * 10
        for _ in range(5000):
            counts[sampler.sample(rng)] += 1
        assert min(counts) > 300  # roughly uniform

    def test_skew_prefers_low_ranks(self):
        sampler = ZipfSampler(10, 1.2)
        rng = random.Random(1)
        counts = [0] * 10
        for _ in range(5000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] > counts[9] * 3

    def test_bounds(self):
        sampler = ZipfSampler(5, 1.0)
        rng = random.Random(2)
        assert all(0 <= sampler.sample(rng) < 5 for _ in range(1000))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)

    @given(
        n=st.integers(min_value=1, max_value=300),
        s=st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.2, 2.0]),
        u=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.sampled_from([0.0, 0.5, 1.0 - 2**-53]),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_bisect_equals_the_search_loop(self, n, s, u):
        """``sample`` returns the index the hand-written binary search
        it replaced returned, for any draw -- CDF values themselves, and
        draws past a last CDF value rounded below 1, included."""
        sampler = ZipfSampler(n, s)
        cdf = sampler._cdf

        def loop(u):
            lo, hi = 0, n - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cdf[mid] < u:
                    lo = mid + 1
                else:
                    hi = mid
            return lo

        class Draw:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        for draw in (u, cdf[min(int(u * n), n - 1)], cdf[-1], 1.0 - 2**-53):
            assert sampler.sample(Draw(draw)) == loop(draw)


class TestWorkloadSpec:
    def test_item_names(self):
        spec = WorkloadSpec(n_items=3)
        assert spec.item_names() == ["X0", "X1", "X2"]
        assert spec.initial_items(7) == {"X0": 7, "X1": 7, "X2": 7}


class TestWorkloadGenerator:
    def test_deterministic_given_seed(self):
        def ops_of(seed):
            spec = WorkloadSpec(n_items=8, ops_per_txn=3, write_fraction=0.5)
            gen = WorkloadGenerator(spec, random.Random(seed))
            # Programs capture their ops at creation; run one to observe.
            return [gen.next_program() for _ in range(5)]

        # Same seed produces identically shaped generators (we compare by
        # driving them in identical fake contexts below).
        class FakeCtx:
            def __init__(self):
                self.trace = []

            def read(self, item):
                self.trace.append(("r", item))
                return iter(())
                yield  # pragma: no cover

            def write(self, item, value):
                self.trace.append(("w", item))
                return iter(())
                yield  # pragma: no cover

        def trace(programs):
            out = []
            for program in programs:
                ctx = FakeCtx()
                gen = program(ctx)
                try:
                    while True:
                        next(gen)
                except StopIteration:
                    pass
                out.append(tuple(ctx.trace))
            return out

        assert trace(ops_of(3)) == trace(ops_of(3))
        assert trace(ops_of(3)) != trace(ops_of(4))

    def test_distinct_items_per_txn(self):
        spec = WorkloadSpec(n_items=16, ops_per_txn=5, write_fraction=0.0,
                            read_modify_write=False)
        gen = WorkloadGenerator(spec, random.Random(9))

        class FakeCtx:
            def __init__(self):
                self.items = []

            def read(self, item):
                self.items.append(item)
                return iter(())

            def write(self, item, value):
                self.items.append(item)
                return iter(())

        for _ in range(20):
            ctx = FakeCtx()
            body = gen.next_program()(ctx)
            try:
                while True:
                    next(body)
            except StopIteration:
                pass
            assert len(set(ctx.items)) == len(ctx.items)

    def test_forks_share_the_sampler_and_the_names(self):
        spec = WorkloadSpec(n_items=1024, ops_per_txn=4, write_fraction=0.0,
                            zipf_s=0.9, read_modify_write=False)
        parent = WorkloadGenerator(spec, random.Random(11))
        forks = [parent.fork(i) for i in range(2)]

        class FakeCtx:
            def __init__(self):
                self.items = []

            def read(self, item):
                self.items.append(item)
                return iter(())

        def items_of(program):
            ctx = FakeCtx()
            for _ in program(ctx):
                pass
            return ctx.items

        picked = [[items_of(fork.next_program()) for _ in range(2)] for fork in forks]
        # The streams of a fresh sampler per fork, recorded before forks
        # shared one: sharing changes no draw.
        assert picked == [
            [["X0", "X1", "X34", "X270"], ["X2", "X6", "X240", "X1017"]],
            [["X0", "X61", "X479", "X833"], ["X0", "X2", "X67", "X115"]],
        ]
        for fork in forks:
            assert fork._sampler is parent._sampler
            assert fork._names is parent._names
        # One string per item, however many programs name it.
        assert picked[0][0][0] is picked[1][0][0] is parent._names[0]
