"""Tie-break policies: the schedule-perturbation seam (schedsan layer 1).

The kernel orders same-timestamp heap entries by insertion sequence
(FIFO). That tie-break is an arbitrary-but-fixed choice the protocol's
correctness argument (PAPER.md §3) must not depend on. A
:class:`TieBreakPolicy` attached to a kernel intercepts exactly those
ties: whenever two or more *live* entries are ready at the same instant,
the policy picks which one runs next. Everything else — causality (an
event scheduled while another runs cannot be offered before it exists),
lazy cancellation, the clock — is untouched, so a policy only ever
explores **legal** schedules of the same program.

Every policy records its decisions: the index chosen into the
seq-ordered batch of ready entries, one entry per real choice point
(batches of one are not choices and are not recorded). A recorded run is
therefore replayable — feeding the list to a :class:`DirectedPolicy`
reproduces the exact schedule byte-for-byte — which is what the shrinker
and the ``repro schedfuzz`` artifacts rely on.

The :class:`ShufflePolicy` draws from the kernel's own
:class:`~repro.sim.rng.RngRegistry` (stream :data:`STREAM_NAME`, salted
per schedule), so perturbed runs are themselves deterministic functions
of ``(seed, salt)`` and never disturb any other consumer's stream.
"""

from __future__ import annotations

import dataclasses
import random
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

#: RngRegistry stream the shuffle policy draws from. Salted schedules
#: append ``[salt]`` so each perturbed run is an independent — but
#: individually replayable — sequence.
STREAM_NAME = "sanitize.schedule"


class TieBreakPolicy:
    """Base policy: canonical FIFO choice (index 0), decisions recorded.

    Attaching the base class must not change the schedule: it always
    picks the lowest-seq entry of the batch, which is exactly what the
    unperturbed heap pop would have produced. It still records one
    decision per choice point, so a canonical run's decision list is
    all zeros of the right length — the identity the shrinker converges
    toward.
    """

    __slots__ = ("decisions",)

    def __init__(self) -> None:
        #: One entry per same-timestamp batch of >= 2 live entries: the
        #: index chosen into the seq-ordered batch.
        self.decisions: list[int] = []

    def choose(self, n: int) -> int:
        """Pick the batch index to run next (``0 <= index < n``)."""
        self.decisions.append(0)
        return 0


class ShufflePolicy(TieBreakPolicy):
    """Uniform random tie-break from a seeded stream (perturbed runs)."""

    __slots__ = ("rng",)

    def __init__(self, rng: random.Random) -> None:
        super().__init__()
        self.rng = rng

    def choose(self, n: int) -> int:
        index = self.rng.randrange(n)
        self.decisions.append(index)
        return index


class DirectedPolicy(TieBreakPolicy):
    """Replay a recorded decision list (or a shrunken subset of one).

    ``plan`` maps choice-point ordinal -> chosen index; missing ordinals
    take the canonical choice (0). A dense recorded list works too.
    Replaying the schedule that recorded the plan is byte-identical;
    replaying a *shrunken* plan may reach choice points with smaller
    batches than the original run, so out-of-range choices clamp to the
    last batch index instead of failing.
    """

    __slots__ = ("plan", "_cursor")

    def __init__(
        self, decisions: typing.Mapping[int, int] | typing.Sequence[int]
    ) -> None:
        super().__init__()
        if isinstance(decisions, typing.Mapping):
            self.plan: dict[int, int] = {
                int(k): int(v) for k, v in decisions.items() if int(v)
            }
        else:
            self.plan = {
                i: int(v) for i, v in enumerate(decisions) if int(v)
            }
        self._cursor = 0

    def choose(self, n: int) -> int:
        index = min(self.plan.get(self._cursor, 0), n - 1)
        self._cursor += 1
        self.decisions.append(index)
        return index


@dataclasses.dataclass(frozen=True)
class ScheduleSpec:
    """A serializable description of one schedule to run.

    ``mode`` is ``"canonical"`` (tie-break seam engaged but FIFO
    choices), ``"shuffle"`` (seeded perturbation; ``salt`` picks the
    stream), or ``"directed"`` (replay ``decisions``, a sparse
    ``(ordinal, index)`` pair list or dense index list).
    """

    mode: str = "shuffle"
    salt: int = 0
    decisions: tuple = ()

    def build(self, kernel: "Kernel") -> TieBreakPolicy:
        """Construct the policy for ``kernel`` (does not attach it)."""
        if self.mode == "canonical":
            return TieBreakPolicy()
        if self.mode == "shuffle":
            name = STREAM_NAME if not self.salt else f"{STREAM_NAME}[{self.salt}]"
            return ShufflePolicy(kernel.rng.stream(name))
        if self.mode == "directed":
            plan = self.decisions
            if plan and isinstance(plan[0], (tuple, list)):
                return DirectedPolicy({int(k): int(v) for k, v in plan})
            return DirectedPolicy(list(plan))  # type: ignore[arg-type]
        raise ValueError(f"unknown schedule mode {self.mode!r}")

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "salt": self.salt,
            "decisions": [list(pair) for pair in self.decisions],
        }

    @classmethod
    def from_json(cls, data: typing.Mapping) -> "ScheduleSpec":
        return cls(
            mode=str(data.get("mode", "shuffle")),
            salt=int(data.get("salt", 0)),
            decisions=tuple(
                tuple(pair) if isinstance(pair, (list, tuple)) else pair
                for pair in data.get("decisions", ())
            ),
        )


def directed_spec(plan: typing.Mapping[int, int]) -> ScheduleSpec:
    """A directed :class:`ScheduleSpec` from a sparse decision mapping."""
    return ScheduleSpec(
        mode="directed",
        decisions=tuple(sorted((int(k), int(v)) for k, v in plan.items())),
    )


def sparse_decisions(decisions: typing.Sequence[int]) -> dict[int, int]:
    """Dense recorded decision list -> sparse non-canonical mapping."""
    return {i: v for i, v in enumerate(decisions) if v}


def attach_policy(kernel: "Kernel", spec: ScheduleSpec) -> TieBreakPolicy:
    """Build ``spec``'s policy and subscribe it as ``kernel``'s tie-break.

    The returned policy is the handle to its recorded ``decisions``
    (traced runs keep it as ``obs.policy``).
    """
    policy = spec.build(kernel)
    kernel.probes.subscribe(tiebreak=policy.choose)
    return policy
