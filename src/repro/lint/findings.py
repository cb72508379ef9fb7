"""The finding record produced by every replint rule."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Every unsuppressed finding fails the gate
    (``tests/lint/test_baseline_gate.py``). ``path`` is the file's path
    relative to the lint root, in POSIX form, so findings are stable
    across machines and operating systems.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """One-line human-readable form (path:line:col style)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

