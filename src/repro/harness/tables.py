"""Plain-text result tables, and the paper's claims checked on them."""

from __future__ import annotations

import typing


class Table:
    """A titled, column-ordered result table.

    Rows are dicts; values are formatted with sensible defaults
    (floats to 3 significant decimals). The table renders as aligned
    monospace text and is also queryable for assertions. ``facts`` holds
    what a claim must read that no column shows (E5's database size).
    """

    def __init__(
        self, title: str, columns: typing.Sequence[str], facts: dict | None = None
    ) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[dict] = []
        self.facts = dict(facts or {})

    def add_row(self, **values: object) -> None:
        """Append a row; every key must be a declared column."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}")
        self.rows.append({column: values.get(column) for column in self.columns})

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def where(self, **match: object) -> list[dict]:
        """Rows whose listed columns equal the given values."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in match.items())
        ]

    def by(self, *columns: str) -> dict:
        """Rows keyed by their values in ``columns`` (a tuple for several)."""
        if len(columns) == 1:
            return {row[columns[0]]: row for row in self.rows}
        return {tuple(row[column] for column in columns): row for row in self.rows}

    @staticmethod
    def _format(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
        return str(value)

    def render(self) -> str:
        """The table as aligned monospace text (title + header + rows)."""
        header = [column for column in self.columns]
        body = [[self._format(row[column]) for column in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title]
        lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class Claim(typing.NamedTuple):
    """One of the paper's claims, checked on a finished table: which
    (``id``, the ``section`` of the paper — or of DESIGN.md, for an
    extension — that makes it), what must hold, whether it did, and the
    table values it read (``numbers``, by label)."""

    id: str
    section: str
    statement: str
    holds: bool
    numbers: dict

    def render(self) -> str:
        """One line: id, section, verdict, statement, then what it read."""
        read = ", ".join(
            f"{label}={Table._format(value)}" for label, value in self.numbers.items()
        )
        verdict = "holds" if self.holds else "FAILS"
        return f"claim {self.id} ({self.section}) {verdict}: {self.statement} [{read}]"


def every_run(rows: typing.Iterable[dict], key: str, column: str) -> tuple[bool, dict]:
    """Whether each row's ``column`` counts all of its ``runs`` (E8, E10,
    E11's verdict columns), and each count as ``passed/runs`` by ``key``."""
    rows = list(rows)
    return (
        all(row[column] == row["runs"] for row in rows),
        {row[key]: f"{row[column]}/{row['runs']}" for row in rows},
    )
