"""The lint runner: discover files, run rules, filter, report.

Exposed as ``repro-ecg lint`` and ``python -m repro.analysis``.  The
pipeline per run:

1. discover ``*.py`` files (default: ``src/`` under the root, the
   runtime the invariants protect; pass explicit paths to lint
   anything else, e.g. the rule-test fixtures);
2. parse each into a :class:`~repro.analysis.core.SourceModule` and
   run every registered rule over it, then each rule's cross-module
   :meth:`~repro.analysis.core.Rule.finish` hook;
3. drop findings covered by an inline justified suppression, add
   ``RL000`` diagnostics for unjustified ones;
4. render ``file:line: RLxxx message`` lines (or JSON, or
   ``--format github`` workflow annotations), optionally write the
   machine-readable report, and exit non-zero iff findings remain.

Exit codes: 0 clean, 1 findings, 2 usage error — shell-friendly so
``scripts/run_tier1.sh`` and CI gate on it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigurationError
from . import rules as _rules  # noqa: F401 — importing registers the rules
from .core import Finding, Project, SourceModule, all_rule_ids, all_rules

REPORT_SCHEMA = 1


def discover_files(root: Path, paths: list[str] | None) -> list[Path]:
    """The files to lint: explicit paths, or ``<root>/src/**/*.py``."""
    if paths:
        files: list[Path] = []
        for raw in paths:
            path = Path(raw)
            if not path.is_absolute():
                path = root / path
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.is_file():
                files.append(path)
            else:
                raise ConfigurationError(f"no such file or directory: {raw}")
        return files
    source_root = root / "src"
    if not source_root.is_dir():
        raise ConfigurationError(
            f"{source_root} does not exist; pass explicit paths or --root"
        )
    return sorted(source_root.rglob("*.py"))


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    root: Path,
    paths: list[str] | None = None,
    select: set[str] | None = None,
) -> tuple[list[Finding], Project, int]:
    """Run every (selected) rule; returns (findings, project,
    suppressed-count).  Findings are sorted by file, line, rule."""
    files = discover_files(root, paths)
    modules = [
        SourceModule(
            path, _relative(path, root), path.read_text(encoding="utf-8")
        )
        for path in files
    ]
    project = Project(root, modules)
    rules = {
        rule_id: rule
        for rule_id, rule in all_rules().items()
        if select is None or rule_id in select
    }
    raw: list[Finding] = []
    for module in modules:
        raw.extend(module.framework_findings())
        for rule in rules.values():
            raw.extend(rule.check_module(module, project))
    for rule in rules.values():
        raw.extend(rule.finish(project))

    by_rel = {module.rel: module for module in modules}
    findings = []
    suppressed = 0
    for finding in raw:
        module = by_rel.get(finding.path)
        if module is not None and module.suppressed(finding):
            suppressed += 1
        else:
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.key))
    return findings, project, suppressed


def _report_dict(
    findings: list[Finding], suppressed: int, root: Path
) -> dict:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "schema": REPORT_SCHEMA,
        "root": str(root),
        "findings": [f.to_dict() for f in findings],
        "counts": counts,
        "suppressed": suppressed,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ecg lint",
        description=(
            "repro-lint: static invariant checks for the decode stack "
            "(event-loop blocking, lock discipline, hot-loop "
            "allocations, telemetry catalog, exception hygiene, "
            "docs drift, await atomicity, process-pool dispatch "
            "sites, frame-dispatch exhaustiveness)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: <root>/src)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (README.md, src/)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "stdout format (github emits workflow annotations: "
            "::error file=...,line=...)"
        ),
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the JSON findings report here",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id} {rule.name}: {rule.summary}")
        return 0
    root = Path(args.root)
    if not root.is_dir():
        print(f"--root {args.root} is not a directory", file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = {rule_id.strip() for rule_id in args.select.split(",")}
        # validate against the full id space: RL000 is a legal (if
        # redundant) selection — framework diagnostics always run
        unknown = select - all_rule_ids()
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
    try:
        findings, _, suppressed = run_lint(root, args.paths, select)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    report = _report_dict(findings, suppressed, root)
    if args.report is not None:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.format == "github":
        for finding in findings:
            # workflow-command annotations; newlines would terminate
            # the command early, so flatten the message
            message = finding.message.replace("\n", " ")
            print(
                f"::error file={finding.path},line={finding.line},"
                f"title={finding.rule} {finding.key}::{message}"
            )
        print(
            f"repro-lint: {len(findings)} finding(s), "
            f"{suppressed} suppressed"
        )
    else:
        for finding in findings:
            print(finding.render())
        print(
            f"repro-lint: {len(findings)} finding(s), "
            f"{suppressed} suppressed"
        )
    return 1 if findings else 0
