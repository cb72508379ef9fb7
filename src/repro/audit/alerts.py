"""Structured audit alerts and their log.

Every invariant violation or watchdog firing becomes one immutable
:class:`Alert`: a rule id, a severity, the sim-time, the human-readable
rule text, and whatever protocol context identifies the offender (site,
transaction ids, span id, free-form details). The :class:`AlertLog`
collects them in firing order, answers severity/rule queries for the CI
gate, renders the summary table, and exports the JSONL alert stream
(same one-object-per-line shape as ``repro.obs.export.export_jsonl``).
"""

from __future__ import annotations

import dataclasses
import json
import typing

SEVERITIES = ("info", "warning", "critical")


@dataclasses.dataclass(frozen=True)
class Alert:
    """One protocol-invariant violation or liveness-watchdog firing."""

    rule: str  #: stable rule id, e.g. ``"onesr.cycle"``
    severity: str  #: ``"info"`` | ``"warning"`` | ``"critical"``
    time: float  #: sim-time at which the violation was detected
    message: str  #: human-readable rule text
    site: int | None = None
    txn_ids: tuple[str, ...] = ()
    span_id: int | None = None
    details: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict:
        return {
            "type": "alert",
            "rule": self.rule,
            "severity": self.severity,
            "time": self.time,
            "message": self.message,
            "site": self.site,
            "txn_ids": list(self.txn_ids),
            "span_id": self.span_id,
            "details": self.details,
        }


class AlertLog:
    """Append-only alert stream with severity/rule accounting."""

    def __init__(self) -> None:
        self.alerts: list[Alert] = []
        self._dedupe: set[tuple] = set()

    def record(
        self,
        rule: str,
        severity: str,
        time: float,
        message: str,
        *,
        site: int | None = None,
        txn_ids: typing.Sequence[str] = (),
        span_id: int | None = None,
        details: dict | None = None,
        dedupe_key: tuple | None = None,
    ) -> Alert | None:
        """Append one alert; returns ``None`` when ``dedupe_key`` repeats."""
        if dedupe_key is not None:
            key = (rule, *dedupe_key)
            if key in self._dedupe:
                return None
            self._dedupe.add(key)
        alert = Alert(
            rule=rule,
            severity=severity,
            time=time,
            message=message,
            site=site,
            txn_ids=tuple(txn_ids),
            span_id=span_id,
            details=dict(details or {}),
        )
        self.alerts.append(alert)
        return alert

    # -- queries --------------------------------------------------------------

    def count(self, severity: str | None = None, rule: str | None = None) -> int:
        return sum(
            1
            for alert in self.alerts
            if (severity is None or alert.severity == severity)
            and (rule is None or alert.rule == rule)
        )

    def critical(self) -> list[Alert]:
        return [alert for alert in self.alerts if alert.severity == "critical"]

    @property
    def has_critical(self) -> bool:
        return any(alert.severity == "critical" for alert in self.alerts)

    def by_rule(self) -> dict[str, list[Alert]]:
        grouped: dict[str, list[Alert]] = {}
        for alert in self.alerts:
            grouped.setdefault(alert.rule, []).append(alert)
        return grouped

    # -- export ---------------------------------------------------------------

    def export_jsonl(self, path: str, label: str = "") -> int:
        """Write the alert stream; returns the number of lines written."""
        lines = [
            json.dumps(
                {
                    "type": "meta",
                    "label": label,
                    "alerts": len(self.alerts),
                    "critical": self.count("critical"),
                    "warning": self.count("warning"),
                }
            )
        ]
        lines.extend(json.dumps(alert.to_dict()) for alert in self.alerts)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(lines)

    def render_summary(self) -> str:
        """The auditor summary table: each rule's count and first alert."""
        out = ["audit summary"]
        total = len(self.alerts)
        out.append(
            f"  alerts: {total} total, {self.count('critical')} critical, "
            f"{self.count('warning')} warning"
        )
        if not total:
            out.append("  (no alerts: all monitored invariants held)")
            return "\n".join(out)
        out.append(f"  {'rule':<28} {'sev':<8} {'n':>4}  first occurrence")
        for rule, alerts in sorted(self.by_rule().items()):
            first = alerts[0]
            where = f"site {first.site}" if first.site is not None else "-"
            out.append(
                f"  {rule:<28} {first.severity:<8} {len(alerts):>4}  "
                f"t={first.time:.1f} {where}: {first.message}"
            )
        return "\n".join(out)
