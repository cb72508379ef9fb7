"""The finding record produced by every replint rule."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Every unsuppressed finding fails the gate (exit 1). ``path`` is the
    file's path relative to the lint root, in POSIX form, so findings
    are stable across machines and operating systems.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def render(self) -> str:
        """One-line human-readable form (path:line:col style)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        """JSON-serializable form (documented in STATIC_ANALYSIS.md)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }
