"""The finding record produced by every replint rule."""

from __future__ import annotations

import dataclasses
import enum


class Severity(enum.Enum):
    """How a finding affects the exit code.

    ``ERROR`` findings fail the gate (exit 1) unless suppressed;
    ``ADVICE`` findings are reported but never fail the gate on their
    own (REP006 is advisory: ``__slots__``
    is a perf nicety, not a correctness invariant).
    """

    ERROR = "error"
    ADVICE = "advice"


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the file's path relative to the lint root, in POSIX
    form, so findings are stable across machines and operating
    systems.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def render(self) -> str:
        """One-line human-readable form (path:line:col style)."""
        tag = "" if self.severity is Severity.ERROR else " (advice)"
        return f"{self.path}:{self.line}:{self.col}: {self.rule}{tag} {self.message}"

    def to_json(self) -> dict:
        """JSON-serializable form (documented in STATIC_ANALYSIS.md)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }
