"""RL006: README must track the CLI (subcommands and serve flags).

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
- every flag in the ``CHANNEL_FLAGS`` and ``TELEMETRY_FLAGS`` tuples
  of ``cli.py`` appears verbatim in README.md.

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
from pathlib import Path

from .core import Finding, Project, Rule, register

#: the module-level tuples in cli.py whose flags the README must list
FLAG_TUPLES = (
    "CHANNEL_FLAGS",
    "TELEMETRY_FLAGS",
    "PRECISION_FLAGS",
    "FEDERATION_FLAGS",
)


def readme_drift(
    readme_text: str,
    subcommands: list[str],
    flags: list[str],
) -> list[tuple[str, str]]:
    """Pure drift check: ``(kind, missing-item)`` pairs.

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
    return gaps


def cli_surface(cli_path: Path) -> tuple[list[str], list[str]]:
    """``(subcommands, drift-checked flags)`` parsed out of ``cli_path``.

    Static by design: an ``add_parser("<name>", ...)`` call declares a
    subcommand; an assignment of a tuple/list of string literals to a
    name in :data:`FLAG_TUPLES` declares drift-checked flags.
    """
    tree = ast.parse(cli_path.read_text(encoding="utf-8"), str(cli_path))
    subcommands = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            subcommands.append(node.args[0].value)
    flags = []
    for name in FLAG_TUPLES:
        flags.extend(_string_tuple(tree, name))
    return subcommands, flags


def _string_tuple(tree: ast.Module, name: str) -> list[str]:
    """String literals of a module-level ``name = ("...", ...)``."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            return [
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]
    return []


@register
class DocsDriftRule(Rule):
    id = "RL006"
    name = "docs-drift"
    summary = (
        "README.md must list every repro-ecg subcommand and every "
        "drift-checked serve flag"
    )

    def finish(self, project: Project) -> list[Finding]:
        readme = project.root / "README.md"
        cli_module = project.root / "src" / "repro" / "cli.py"
        if not readme.exists() or not cli_module.exists():
            return []
        subcommands, flags = cli_surface(cli_module)
        text = readme.read_text(encoding="utf-8")
        findings = []
        for kind, missing in readme_drift(text, subcommands, flags):
            what = (
                f"repro-ecg {missing}" if kind == "subcommand" else missing
            )
            findings.append(
                Finding(
                    rule=self.id,
                    path="README.md",
                    line=1,
                    message=(
                        f"README.md does not mention '{what}' "
                        f"({kind} exists in repro-ecg --help; update "
                        f"the CLI reference)"
                    ),
                    key=f"{kind}:{missing}",
                )
            )
        return findings
