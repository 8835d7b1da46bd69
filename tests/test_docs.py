"""``docs/architecture.md`` describes the system as it is.

The history of how each part got there lives in ``CHANGES.md``; the
architecture document cites no pull request or issue number.
"""

from __future__ import annotations

import re
from pathlib import Path

ARCHITECTURE = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"


def test_architecture_cites_no_pr_or_issue():
    text = ARCHITECTURE.read_text(encoding="utf-8")
    cited = [
        f"line {number}: {match.group(0)}"
        for number, line in enumerate(text.splitlines(), 1)
        for match in re.finditer(r"\b(?:PR|ISSUE)s? ?#?\d+", line)
    ]
    assert not cited, f"history belongs in CHANGES.md: {cited}"


def _metric_rows() -> dict[str, tuple[str, set[str]]]:
    """§7's metric table: ``name -> (kind, label names)``, one family
    per row (a row naming two families fails here)."""
    lines = ARCHITECTURE.read_text(encoding="utf-8").splitlines()
    start = lines.index("| metric | kind | labels | meaning |") + 2
    rows: dict[str, tuple[str, set[str]]] = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name_cell, kind, labels_cell = (
            cell.strip() for cell in line.split(" | ")[:3]
        )
        (name,) = re.fullmatch(r"\| `(\w+)`", name_cell).groups()
        assert name not in rows, f"{name} has two rows"
        labels = {
            re.match(r"`(\w+)`", piece).group(1)
            for piece in labels_cell.split(", ")
            if piece != "—"
        }
        rows[name] = (kind, labels)
    return rows


def test_metric_table_matches_the_catalog():
    """Every declared family has one row with its kind and labels, and
    every row is a declared family."""
    from repro.telemetry.catalog import CATALOG

    rows = _metric_rows()
    assert set(rows) == set(CATALOG)
    for name, spec in CATALOG.items():
        assert rows[name] == (spec.kind, set(spec.labels)), name
