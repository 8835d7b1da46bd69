"""RL006: README must track the CLI (subcommands and flags).

PR 3 introduced this check as shell greps in ``scripts/run_tier1.sh``;
moving it into the linter makes it unit-testable, gives it file:line
findings like every other rule, and lets one ``repro-ecg lint`` run
gate docs and code together (the rule also enforces its own
documentation: ``repro-ecg lint`` must appear in the README's CLI
reference like any other subcommand).

The drift contract, unchanged from the shell version:

- every argparse subcommand registered in ``cli.py`` (an
  ``add_parser("name", ...)`` call) appears in README.md as
  ``repro-ecg <name>``;
- every ``--flag`` string passed to an ``add_argument(...)`` call in
  ``cli.py`` or ``analysis/runner.py`` (the ``repro-ecg lint``
  parser) appears verbatim in README.md, so a new flag is checked the
  moment it is declared;
- and the other way round: every ``--flag`` that README's
  ``## CLI reference`` section names is declared by one of those
  ``add_argument(...)`` calls, so a note about a deleted flag fails
  instead of sending a reader to ``unrecognized arguments``.

The CLI surface is read by *parsing* the ``cli.py`` that lives under
``project.root`` — never by importing the installed :mod:`repro.cli` —
so linting another checkout via ``--root`` compares that tree's README
against that tree's CLI, and the rule stays importable on a bare
stdlib interpreter (CI's lint job installs nothing).

The rule runs only when the lint root actually contains the repo's
``README.md`` and CLI module — fixture trees used by rule tests are
exempt by construction.

Tier-1 cannot see this bug class: no test reads the README, so a
dropped subcommand row or flag leaves every test green.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .core import Finding, Project, Rule, register

#: a ``--flag`` token in README text (not a ``---`` rule or ``a--b``)
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def reference_flags(readme_text: str) -> dict[str, int]:
    """Each ``--flag`` README's ``## CLI reference`` section names (up
    to the next ``## `` heading), with the line of its first mention."""
    found: dict[str, int] = {}
    inside = False
    for number, line in enumerate(readme_text.splitlines(), 1):
        if line.startswith("## "):
            inside = line.strip() == "## CLI reference"
        elif inside:
            for flag in _FLAG.findall(line):
                found.setdefault(flag, number)
    return found


def readme_drift(
    readme_text: str,
    subcommands: list[str],
    flags: list[str],
) -> list[tuple[str, str]]:
    """Pure drift check: ``(kind, item)`` pairs — a ``subcommand`` or
    ``flag`` README misses, or an ``undeclared`` flag its CLI
    reference names that no parser declares.

    Split out of the rule so tests can pin the matching semantics
    without building a repo tree.
    """
    gaps = []
    for command in subcommands:
        if f"repro-ecg {command}" not in readme_text:
            gaps.append(("subcommand", command))
    for flag in flags:
        if flag not in readme_text:
            gaps.append(("flag", flag))
    declared = {*flags, "--help"}  # argparse adds --help by itself
    for flag in reference_flags(readme_text):
        if flag not in declared:
            gaps.append(("undeclared", flag))
    return gaps


def cli_surface(cli_path: Path) -> tuple[list[str], list[str]]:
    """``(subcommands, flags)`` parsed out of ``cli_path``.

    Static by design: an ``add_parser("<name>", ...)`` call declares a
    subcommand, and every ``"--flag"`` string argument of an
    ``add_argument(...)`` call declares a flag (first-seen order, each
    once: ``fleet`` and ``serve`` share several).
    """
    tree = ast.parse(cli_path.read_text(encoding="utf-8"), str(cli_path))
    subcommands: list[str] = []
    flags: list[str] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        ):
            continue
        names = [
            arg.value
            for arg in node.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ]
        if node.func.attr == "add_parser" and names[:1]:
            subcommands.append(names[0])
        elif node.func.attr == "add_argument":
            flags.extend(
                name
                for name in names
                if name.startswith("--") and name not in flags
            )
    return subcommands, flags


@register
class DocsDriftRule(Rule):
    id = "RL006"
    name = "docs-drift"
    summary = (
        "README.md must list every repro-ecg subcommand and every "
        "flag cli.py declares, and name no flag that none declares"
    )

    def finish(self, project: Project) -> list[Finding]:
        readme = project.root / "README.md"
        cli_module = project.root / "src" / "repro" / "cli.py"
        if not readme.exists() or not cli_module.exists():
            return []
        subcommands, flags = cli_surface(cli_module)
        lint_parser = project.root / "src" / "repro" / "analysis" / "runner.py"
        declared = list(flags)
        if lint_parser.exists():
            declared += cli_surface(lint_parser)[1]
        text = readme.read_text(encoding="utf-8")
        findings = []
        for kind, item in readme_drift(text, subcommands, declared):
            if kind == "undeclared":
                line = reference_flags(text)[item]
                message = (
                    f"README.md's CLI reference names '{item}', which no "
                    f"add_argument in cli.py or analysis/runner.py "
                    f"declares (reword the note or declare the flag)"
                )
            else:
                what = (
                    f"repro-ecg {item}" if kind == "subcommand" else item
                )
                line = 1
                message = (
                    f"README.md does not mention '{what}' "
                    f"({kind} exists in repro-ecg --help; update "
                    f"the CLI reference)"
                )
            findings.append(
                Finding(
                    rule=self.id,
                    path="README.md",
                    line=line,
                    message=message,
                    key=f"{kind}:{item}",
                )
            )
        return findings
