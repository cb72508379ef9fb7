"""Random transaction-program generation."""

from __future__ import annotations

import bisect
import copy
import dataclasses
import math
import random
import typing


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the synthetic workload.

    Attributes
    ----------
    n_items:
        Database size; items are named ``X0 .. X{n-1}``.
    ops_per_txn:
        Logical operations per transaction.
    write_fraction:
        Probability that an individual operation is a WRITE.
    zipf_s:
        Skew of the access distribution (0 = uniform; ~0.8-1.2 = typical
        hotspot skew). Item 0 is the hottest.
    read_modify_write:
        If True, writes are preceded by a read of the same item (the
        bank/inventory pattern); otherwise blind writes.
    ro_fraction:
        Probability that a whole transaction is a read-only *snapshot*
        transaction (``beginRO``): the client routes it through
        ``submit_ro`` where it reads a pinned committed snapshot with no
        locks and no 2PC. 0 disables the path entirely (and draws
        nothing from the RNG, so existing workloads replay unchanged).
    """

    n_items: int = 32
    ops_per_txn: int = 4
    write_fraction: float = 0.3
    zipf_s: float = 0.0
    read_modify_write: bool = True
    ro_fraction: float = 0.0

    def item_names(self) -> list[str]:
        return [f"X{i}" for i in range(self.n_items)]

    def initial_items(self, value: object = 0) -> dict[str, object]:
        return {name: value for name in self.item_names()}


class ZipfSampler:
    """Zipf-distributed item indices via inverse CDF (s=0 is uniform)."""

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise ValueError("need at least one item")
        self.n = n
        self.s = s
        weights = [1.0 / math.pow(rank + 1, s) for rank in range(n)]
        total = sum(weights)
        self._cdf: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)

    def sample(self, rng: random.Random) -> int:
        # The first rank whose CDF reaches u; the last rank if rounding
        # leaves the final CDF value short of u.
        return bisect.bisect_left(self._cdf, rng.random(), 0, self.n - 1)


class WorkloadGenerator:
    """Builds random transaction programs from a spec.

    Deterministic given the RNG stream passed in; each generated program
    is self-contained (captures its op list at creation).
    """

    def __init__(self, spec: WorkloadSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self._sampler = ZipfSampler(spec.n_items, spec.zipf_s)
        #: ``spec.item_names()``, built once: every program of every fork
        #: names its items with these strings.
        self._names = spec.item_names()
        self.generated = 0

    def fork(self, index: int) -> "WorkloadGenerator":
        """An independent, deterministically-seeded child generator.

        Forking draws one seed from this generator's stream, so a set
        of children created in a fixed order (client pool construction)
        is itself a pure function of the parent's seed. Each child then
        evolves independently: *which* programs a consumer draws no
        longer depends on the order consumers happen to interleave —
        the property ``repro schedfuzz`` needs, where a perturbed
        schedule may reorder execution but must never change the
        program being executed.
        """
        child = copy.copy(self)  # shares the spec, the sampler and the names
        child.rng = random.Random(self.rng.getrandbits(64) ^ index)
        child.generated = 0
        return child

    def _pick_items(self, count: int) -> list[str]:
        chosen: list[int] = []
        # Distinct items per transaction: avoids trivial self-conflicts
        # and matches how benchmarks (TPC-like) draw access sets.
        while len(chosen) < min(count, self.spec.n_items):
            index = self._sampler.sample(self.rng)
            if index not in chosen:
                chosen.append(index)
        return [self._names[i] for i in sorted(chosen)]

    def next_program(self) -> typing.Callable:
        """A fresh random transaction program.

        Programs flagged ``read_only`` must be routed via ``submit_ro``
        (they call the snapshot-read context API); the clients in
        :mod:`repro.workload.client` check the flag.
        """
        spec = self.spec
        # Guarded draw: workloads with ro_fraction == 0 consume exactly
        # the same RNG sequence as before the knob existed, keeping
        # e1-e10 replays byte-identical.
        if spec.ro_fraction > 0 and self.rng.random() < spec.ro_fraction:
            return self._next_ro_program()
        ops: list[tuple[str, str]] = []
        items = self._pick_items(spec.ops_per_txn)
        for item in items:
            if self.rng.random() < spec.write_fraction:
                ops.append(("w", item))
            else:
                ops.append(("r", item))
        token = self.generated
        self.generated += 1

        def program(ctx):
            results = {}
            for op, item in ops:
                if op == "r":
                    results[item] = yield from ctx.read(item)
                else:
                    if spec.read_modify_write:
                        current = yield from ctx.read(item)
                        base = current if isinstance(current, int) else 0
                        yield from ctx.write(item, base + 1)
                    else:
                        yield from ctx.write(item, token)
            return results

        return program

    def _next_ro_program(self) -> typing.Callable:
        """A read-only snapshot program over a random item batch."""
        items = tuple(self._pick_items(self.spec.ops_per_txn))
        self.generated += 1

        def ro_program(ctx):
            values = yield from ctx.read_many(items)
            return dict(zip(items, values))

        ro_program.read_only = True  # type: ignore[attr-defined]
        return ro_program
