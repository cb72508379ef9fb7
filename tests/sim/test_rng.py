"""The in-tree SHA-256 behind every named random stream and cell seed."""

import hashlib
import random

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.harness.runner import cell_seed
from repro.sim.rng import RngRegistry, sha256

NAMES = ("net", "harness.placement", "workload.generator", "failures", "", "é:∆")


@given(data=st.binary(max_size=300))
# Padding edges: 55 bytes fit one block with the length, 56 need a second,
# 64 fill a block exactly; 119/120/128 are the same edges one block later.
@example(data=bytes(55))
@example(data=b"\xff" * 56)
@example(data=b"\x80" * 64)
@example(data=bytes(range(119)))
@example(data=bytes(range(120)))
@example(data=bytes(range(128)))
@settings(max_examples=300, deadline=None)
def test_digest_equals_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).digest()


def test_stream_seeds_are_the_hashlib_ones():
    for seed in (0, 1, 11, 11000, 221733, 2**63):
        registry = RngRegistry(seed)
        for name in NAMES:
            digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
            expected = random.Random(int.from_bytes(digest[:8], "big"))
            assert registry.stream(name).getstate() == expected.getstate()


def test_cell_seed_is_the_hashlib_one():
    digest = hashlib.sha256(b"e4:3:rowaa").digest()
    assert cell_seed("e4", 3, "rowaa") == int.from_bytes(digest[:4], "big")
