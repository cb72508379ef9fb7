"""End-state fingerprints and audit-alert signatures for schedule diffing.

``repro schedfuzz`` decides "did this perturbed schedule change
anything?" by comparing two artifacts against the canonical run:

* the **committed-state fingerprint** — per-site unreadable marks and
  stable session numbers, plus the **replica-agreement partition** of
  every item: which sites hold equal committed values, with the values
  themselves anonymised. Two legal schedules of a contended workload
  may serialize conflicting transactions in either order (and commit or
  time out different members of a lock race), so absolute committed
  values are schedule-dependent *by design*; what the tie-break must
  never change is the protocol's invariant structure — whether replicas
  mutually agree, which copies are marked unreadable, and where the
  session vector landed. Physical version stamps and WAL layout are
  excluded for the same reason. ``strict_values=True`` restores
  value-level comparison for scenarios whose committed values are
  schedule-independent (single-writer recovery drills like E2 — the
  tier-1 test ``test_e2_committed_values_are_schedule_independent``).
* the **alert signature** — the multiset of ``(rule, severity)`` pairs
  fired by the protocol auditor. Alert *times* are schedule-dependent
  by nature and are excluded.
"""

from __future__ import annotations

import hashlib
import typing


def system_state(
    system: typing.Any, strict_values: bool = False
) -> dict:
    """Observable committed state, per site, in a diff-friendly shape.

    With ``strict_values`` each site's copies carry ``repr(value)``;
    otherwise values appear only through the per-item agreement
    partition under the ``"agreement"`` key (sites grouped by equal
    committed value, groups ordered by their lowest site id).
    """
    state: dict = {}
    per_item: dict[str, dict[int, str]] = {}
    for site_id in system.cluster.site_ids:
        site = system.cluster.site(site_id)
        copies = []
        for item in site.copies.items():
            copy = site.copies.get(item)
            per_item.setdefault(item, {})[site_id] = repr(copy.value)
            if strict_values:
                copies.append((item, repr(copy.value), copy.unreadable))
            else:
                copies.append((item, copy.unreadable))
        state[site_id] = {
            "copies": sorted(copies),
            "session_last": site.wal.session_last,
        }
    state["agreement"] = {
        item: _partition(values) for item, values in sorted(per_item.items())
    }
    return state


def _partition(values: typing.Mapping[int, str]) -> tuple:
    """Sites grouped by equal value — the value-anonymous agreement shape."""
    groups: dict[str, list[int]] = {}
    for site_id, value in values.items():
        groups.setdefault(value, []).append(site_id)
    return tuple(sorted(tuple(sorted(sites)) for sites in groups.values()))


def fingerprint(state: typing.Mapping) -> str:
    """Stable hex digest of a :func:`system_state` structure."""
    blob = repr(sorted(state.items(), key=repr)).encode()
    return hashlib.sha256(blob).hexdigest()


def alert_signature(obs: typing.Any) -> list[tuple[str, str]]:
    """Sorted (rule, severity) multiset of the run's audit alerts."""
    auditor = getattr(obs, "audit", None)
    if auditor is None:
        return []
    return sorted(
        (alert.rule, alert.severity.value)
        for alert in auditor.alerts.alerts
    )


def diff_states(canonical: typing.Mapping, perturbed: typing.Mapping) -> list[str]:
    """Human-readable per-site differences (empty list when identical)."""
    lines: list[str] = []
    agree_a = canonical.get("agreement", {})
    agree_b = perturbed.get("agreement", {})
    for item in sorted(set(agree_a) | set(agree_b)):
        if agree_a.get(item) != agree_b.get(item):
            lines.append(
                f"agreement {item}: {agree_a.get(item)!r} "
                f"-> {agree_b.get(item)!r}"
            )
    site_ids = sorted(
        key for key in set(canonical) | set(perturbed) if key != "agreement"
    )
    for site_id in site_ids:
        a = canonical.get(site_id)
        b = perturbed.get(site_id)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"site {site_id}: present in only one run")
            continue
        if a["session_last"] != b["session_last"]:
            lines.append(
                f"site {site_id}: session_last {a['session_last']!r} "
                f"-> {b['session_last']!r}"
            )
        copies_a = {entry[0]: entry[1:] for entry in a["copies"]}
        copies_b = {entry[0]: entry[1:] for entry in b["copies"]}
        for item in sorted(set(copies_a) | set(copies_b)):
            if copies_a.get(item) != copies_b.get(item):
                lines.append(
                    f"site {site_id}: {item} {copies_a.get(item)!r} "
                    f"-> {copies_b.get(item)!r}"
                )
    return lines


def diff_alerts(
    canonical: typing.Sequence[tuple[str, str]],
    perturbed: typing.Sequence[tuple[str, str]],
) -> list[str]:
    """Alert-signature differences as +/- count lines."""
    import collections

    a = collections.Counter(tuple(pair) for pair in canonical)
    b = collections.Counter(tuple(pair) for pair in perturbed)
    lines = []
    for key in sorted(set(a) | set(b)):
        if a[key] != b[key]:
            rule, severity = key
            lines.append(f"alert {rule} ({severity}): {a[key]} -> {b[key]}")
    return lines
