"""``repro schedfuzz``: run K perturbed schedules, diff, shrink (layer 3).

The harness runs the canonical schedule of an experiment's traced
scenario under the protocol auditor, then K shuffled schedules (salts
``1..K``) of the *same* seed, and compares each against the canonical
run on two axes: the committed-state fingerprint and the audit-alert
signature (see :mod:`repro.sanitize.fingerprint`). Any mismatch is a
divergence: the protocol's outcome depended on a same-timestamp
tie-break.

On divergence the recorded decision list of the failing schedule is
delta-debugged (:mod:`repro.sanitize.shrink`) down to a minimal set of
non-canonical decisions that still reproduces the divergence, and the
whole story — canonical baseline, per-schedule verdicts, the failing
and minimal decision lists, and the rendered state/alert diff — is
exported as a replayable JSON artifact (``--replay`` re-runs it).
"""

from __future__ import annotations

import dataclasses
import json
import typing

from repro.sanitize.fingerprint import (
    alert_signature,
    diff_alerts,
    diff_states,
    fingerprint,
    system_state,
)
from repro.sanitize.policy import ScheduleSpec, directed_spec, sparse_decisions
from repro.sanitize.shrink import ddmin

#: A traced scenario, as :func:`repro.harness.runner.run_traced` takes
#: it: a scenario name of the experiment registry, or a callable with
#: the ``(build, seed) -> (kernel, system, result)`` shape of an
#: experiment module's ``scenario`` with its parameters bound.
Scenario = typing.Union[str, typing.Callable[..., tuple]]


@dataclasses.dataclass
class ScheduleRun:
    """One completed schedule: fingerprint + alerts + recorded decisions."""

    label: str
    fingerprint: str
    state: dict
    alerts: list[tuple[str, str]]
    decisions: list[int]
    summary: dict


@dataclasses.dataclass
class FuzzResult:
    """The verdict of one ``schedfuzz`` sweep."""

    experiment: str
    seed: int
    schedules: int
    canonical: ScheduleRun
    perturbed: list[ScheduleRun]
    divergent: ScheduleRun | None = None
    divergent_salt: int | None = None
    minimal_plan: dict[int, int] | None = None
    shrink_probes: int = 0
    audit: bool = True

    @property
    def diverged(self) -> bool:
        return self.divergent is not None

    def render(self) -> str:
        lines = [
            f"schedfuzz {self.experiment} seed={self.seed}: "
            f"{len(self.perturbed)} perturbed schedule(s) vs canonical "
            f"{self.canonical.fingerprint[:16]}"
        ]
        for run in self.perturbed:
            verdict = "OK"
            if (run.fingerprint != self.canonical.fingerprint
                    or run.alerts != self.canonical.alerts):
                verdict = "DIVERGED  << VIOLATION"
            lines.append(
                f"  {run.label}: fingerprint={run.fingerprint[:16]} "
                f"alerts={len(run.alerts)} decisions={len(run.decisions)} "
                f"[{verdict}]"
            )
        if self.divergent is not None:
            lines.append(f"divergence ({self.divergent.label}):")
            lines.extend(
                "  " + line
                for line in diff_states(self.canonical.state, self.divergent.state)
            )
            lines.extend(
                "  " + line
                for line in diff_alerts(self.canonical.alerts, self.divergent.alerts)
            )
            if self.minimal_plan is not None:
                lines.append(
                    f"minimal failing schedule: {len(self.minimal_plan)} "
                    f"decision(s) after {self.shrink_probes} shrink probe(s): "
                    f"{sorted(self.minimal_plan.items())}"
                )
        return "\n".join(lines)

    def artifact(self) -> dict:
        """The replayable JSON artifact."""
        document: dict = {
            "experiment": self.experiment,
            "seed": self.seed,
            "schedules": self.schedules,
            "audit": self.audit,
            "diverged": self.diverged,
            "canonical": {
                "fingerprint": self.canonical.fingerprint,
                "alerts": [list(pair) for pair in self.canonical.alerts],
                "summary": _jsonable(self.canonical.summary),
            },
            "runs": [
                {
                    "label": run.label,
                    "fingerprint": run.fingerprint,
                    "alerts": [list(pair) for pair in run.alerts],
                    "n_decisions": len(run.decisions),
                    "diverged": (
                        run.fingerprint != self.canonical.fingerprint
                        or run.alerts != self.canonical.alerts
                    ),
                }
                for run in self.perturbed
            ],
        }
        if self.divergent is not None:
            plan = sparse_decisions(self.divergent.decisions)
            document["divergence"] = {
                "salt": self.divergent_salt,
                "state_diff": diff_states(self.canonical.state,
                                          self.divergent.state),
                "alert_diff": diff_alerts(self.canonical.alerts,
                                          self.divergent.alerts),
                "decisions": sorted(map(list, plan.items())),
                "replay": directed_spec(self.minimal_plan
                                        if self.minimal_plan is not None
                                        else plan).to_json(),
                "shrink_probes": self.shrink_probes,
            }
        return document


def _jsonable(value: typing.Any) -> typing.Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def run_schedule(
    experiment: Scenario,
    seed: int,
    schedule: ScheduleSpec | None,
    label: str,
    audit: bool = True,
) -> ScheduleRun:
    """Run one schedule of ``experiment`` and capture its artifacts."""
    from repro.harness.runner import run_traced

    traced = run_traced(experiment, seed=seed, audit=audit, schedule=schedule)
    obs = traced.obs
    state = system_state(traced.system)
    policy = obs.policy
    return ScheduleRun(
        label=label,
        fingerprint=fingerprint(state),
        state=state,
        alerts=alert_signature(obs),
        decisions=list(policy.decisions) if policy is not None else [],
        summary=dict(traced.summary),
    )


def schedfuzz(
    experiment: Scenario,
    seed: int = 0,
    schedules: int = 8,
    audit: bool = True,
) -> FuzzResult:
    """The full sweep: canonical + K shuffled schedules + shrink."""
    name = experiment if isinstance(experiment, str) else getattr(
        experiment, "__name__", "custom"
    )
    canonical = run_schedule(
        experiment, seed, ScheduleSpec(mode="canonical"), "canonical",
        audit=audit,
    )
    result = FuzzResult(
        experiment=name, seed=seed, schedules=schedules,
        canonical=canonical, perturbed=[], audit=audit,
    )
    for salt in range(1, schedules + 1):
        run = run_schedule(
            experiment, seed, ScheduleSpec(mode="shuffle", salt=salt),
            f"shuffle[{salt}]", audit=audit,
        )
        result.perturbed.append(run)
        if result.divergent is None and (
            run.fingerprint != canonical.fingerprint
            or run.alerts != canonical.alerts
        ):
            result.divergent = run
            result.divergent_salt = salt
    if result.divergent is not None:
        plan = sparse_decisions(result.divergent.decisions)

        def diverges(candidate: dict[int, int]) -> bool:
            probe = run_schedule(
                experiment, seed, directed_spec(candidate), "shrink-probe",
                audit=audit,
            )
            return (probe.fingerprint != canonical.fingerprint
                    or probe.alerts != canonical.alerts)

        if plan:
            result.minimal_plan, result.shrink_probes = ddmin(plan, diverges)
    return result


def replay_artifact(
    experiment: Scenario, seed: int, document: typing.Mapping
) -> tuple[ScheduleRun, ScheduleRun, bool]:
    """Re-run an artifact's minimal schedule; True iff it still diverges.

    The replay runs under the same ``audit`` setting the sweep recorded
    — the auditor schedules events of its own, so a directed decision
    plan only lands on the same ties when that setting matches.
    """
    audit = bool(document.get("audit", True))
    spec = ScheduleSpec.from_json(document["divergence"]["replay"])
    canonical = run_schedule(
        experiment, seed, ScheduleSpec(mode="canonical"), "canonical",
        audit=audit,
    )
    replayed = run_schedule(experiment, seed, spec, "replay", audit=audit)
    diverged = (replayed.fingerprint != canonical.fingerprint
                or replayed.alerts != canonical.alerts)
    return canonical, replayed, diverged
