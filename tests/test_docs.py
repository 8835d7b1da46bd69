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
