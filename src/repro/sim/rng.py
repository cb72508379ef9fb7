"""Named, independently seeded random streams.

Components ask for a stream by name (``rng.stream("net.latency")``); each
name yields an independent :class:`random.Random` derived deterministically
from the master seed. Adding a new consumer of randomness therefore never
perturbs the draws seen by existing consumers — essential for reproducible
experiments and for bisecting behaviour changes.

A stream's seed is the first 8 bytes of the SHA-256 of ``f"{seed}:{name}"``,
computed by :func:`sha256` below rather than :mod:`hashlib`: importing
:mod:`hashlib` maps OpenSSL's ``libcrypto`` (≈ 3.4 MB resident on CPython
3.11, Linux) into every process that builds a world, to hash a few strings
of a few dozen bytes (DESIGN.md §5, "What a run maps").
"""

from __future__ import annotations

import random
import struct

_MASK = 0xFFFFFFFF

#: FIPS 180-4 §4.2.2: the first 32 bits of the fractional parts of the
#: cube roots of the first 64 primes.
_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)

#: §5.3.3: the initial hash value (square roots of the first 8 primes).
_H0 = (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
)


def sha256(data: bytes) -> bytes:
    """SHA-256 (FIPS 180-4) of ``data``: ``hashlib.sha256(data).digest()``.

    Pure Python, so slow per byte: for seed strings only. Bulk digests
    (whole durable states) stay on :mod:`hashlib`. Each rotation is
    written out as ``x >> n | x << 32 - n``, masked once per sum.
    """
    length = len(data)
    # §5.1.1: a 1 bit, zeros up to 56 mod 64 bytes, the bit length.
    data += b"\x80" + bytes((55 - length) % 64) + struct.pack(">Q", 8 * length)
    state: tuple[int, ...] = _H0
    for start in range(0, len(data), 64):
        w = list(struct.unpack_from(">16L", data, start))
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = ((x >> 7 | x << 25) ^ (x >> 18 | x << 14)) & _MASK ^ x >> 3
            s1 = ((y >> 17 | y << 15) ^ (y >> 19 | y << 13)) & _MASK ^ y >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK)
        a, b, c, d, e, f, g, h = state
        for k, wt in zip(_K, w):
            s1 = ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)) & _MASK
            t1 = h + s1 + (e & f ^ ~e & g) + k + wt
            s0 = ((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)) & _MASK
            t2 = s0 + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, h = (t1 + t2) & _MASK, a, b, c, (d + t1) & _MASK, e, f, g
        state = tuple(
            (s + v) & _MASK for s, v in zip(state, (a, b, c, d, e, f, g, h))
        )
    return struct.pack(">8L", *state)


class RngRegistry:
    """Factory of deterministic per-name random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            digest = sha256(f"{self.seed}:{name}".encode())
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream
