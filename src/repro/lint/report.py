"""Human-readable and JSON renderings of a lint run."""

from __future__ import annotations

import collections
import json

from repro.lint.findings import Finding
from repro.lint.registry import all_rules


def render_human(findings: list[Finding], stats: dict[str, object]) -> str:
    """The terminal report: findings, then a one-paragraph summary."""
    lines: list[str] = []
    for finding in findings:
        lines.append(finding.render())
    if findings:
        lines.append("")
    by_rule = collections.Counter(f.rule for f in findings)
    rule_part = ", ".join(f"{rule}×{count}" for rule, count in sorted(by_rule.items()))
    lines.append(
        f"replint: {stats['files']} files, {len(findings)} error(s), "
        f"{stats['suppressed']} suppressed"
        + (f"  [{rule_part}]" if rule_part else "")
    )
    return "\n".join(lines)


def render_json(findings: list[Finding], stats: dict[str, object]) -> str:
    """The ``--json`` report (schema documented in STATIC_ANALYSIS.md)."""
    payload = {
        "version": 2,
        "rules": {rule.id: rule.title for rule in all_rules()},
        "counts": {
            "files": stats["files"],
            "errors": len(findings),
            "suppressed": stats["suppressed"],
        },
        "findings": [finding.to_json() for finding in findings],
    }
    return json.dumps(payload, indent=2)
