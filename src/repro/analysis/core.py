"""Framework core of repro-lint: findings, rules, suppressions, regions.

The decode stack's correctness rests on conventions no runtime check
can see — solves leave the event loop through an executor, registry
state is touched only under its lock, hot solver loops allocate
nothing, metric names come from one catalog.  This package machine-
checks those conventions with nothing but ``ast`` and ``tokenize``
(the repo is offline: no new runtime dependencies, ever).

Vocabulary
----------
- a :class:`Finding` is one violation: rule id + ``file:line`` +
  message + a *key* that is stable across unrelated edits (what
  tests and CI annotations identify a finding by after lines move);
- a :class:`Rule` inspects parsed modules (:meth:`Rule.check_module`)
  and/or the whole project after every module was seen
  (:meth:`Rule.finish` — for cross-module checks like catalog drift);
- a suppression is an inline comment::

      do_risky_thing()  # repro-lint: disable=RL001 — justified because ...

  On the first line of a compound statement (``if``/``for``/``with``/
  ``def`` ...) it covers the statement's whole body.  A suppression
  **must** carry a justification after the rule list; one that does
  not is itself reported (rule ``RL000``, which cannot be suppressed);
- a hot region is a ``for``/``while`` loop marked ``# repro-lint: hot``
  (on the loop line or the line above, or on the enclosing ``def``
  line to mark every loop in the function) — the regions RL003 holds
  to the no-allocation discipline.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: rule id of framework self-diagnostics (unjustified suppression,
#: unparsable file); never suppressible
FRAMEWORK_RULE = "RL000"

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|hot)"
    r"(?:=(?P<rules>[A-Za-z0-9_,]+))?(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site."""

    rule: str
    path: str  #: path relative to the lint root, POSIX separators
    line: int
    message: str
    #: line-independent fingerprint detail (attribute name, metric
    #: name, call name, ...) — stable across unrelated edits
    key: str
    #: False for a finding no ``disable`` may clear (a bug, not a
    #: judgement call)
    suppressible: bool = True

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "key": self.key,
        }


@dataclass(frozen=True)
class Suppression:
    """One ``disable=`` directive and the span of lines it covers."""

    rules: tuple[str, ...]
    reason: str
    line: int  #: the line carrying the comment
    start: int  #: first covered line (== line, or a statement span)
    end: int  #: last covered line

    def covers(self, finding: Finding) -> bool:
        return (
            finding.rule in self.rules
            and self.start <= finding.line <= self.end
        )


class SourceModule:
    """One parsed source file plus its lint directives."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.parse_error: str | None = None
        try:
            self.tree: ast.Module = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            self.parse_error = f"syntax error: {exc.msg} (line {exc.lineno})"
            self.tree = ast.Module(body=[], type_ignores=[])
        directives = _scan_directives(text)
        self._raw_suppressions = [
            d for d in directives if d[0] == "disable"
        ]
        self.hot_marks: set[int] = {
            line for kind, line, _, _ in directives if kind == "hot"
        }
        self.suppressions: list[Suppression] = self._resolve_suppressions()
        self._hot_spans: list[tuple[int, int]] | None = None
        self._hot_while_headers: set[int] = set()

    # -- suppressions --------------------------------------------------
    def _resolve_suppressions(self) -> list[Suppression]:
        """Attach each ``disable`` comment to the span it governs.

        A directive on the first line of a compound statement covers
        that statement's whole ``[lineno, end_lineno]`` span; anywhere
        else it covers its own line only.
        """
        spans: dict[int, int] = {}
        for node in ast.walk(self.tree):
            lineno = getattr(node, "lineno", None)
            end = getattr(node, "end_lineno", None)
            if (
                isinstance(node, ast.stmt)
                and lineno is not None
                and end is not None
            ):
                spans[lineno] = max(spans.get(lineno, lineno), end)
        resolved = []
        for _, line, rules, reason in self._raw_suppressions:
            end = spans.get(line, line)
            resolved.append(
                Suppression(
                    rules=rules,
                    reason=reason,
                    line=line,
                    start=line,
                    end=end,
                )
            )
        return resolved

    def framework_findings(self) -> list[Finding]:
        """RL000 diagnostics: unparsable file, unjustified disables."""
        findings = []
        if self.parse_error is not None:
            findings.append(
                Finding(
                    rule=FRAMEWORK_RULE,
                    path=self.rel,
                    line=1,
                    message=self.parse_error,
                    key="parse-error",
                )
            )
        for suppression in self.suppressions:
            if not suppression.reason:
                findings.append(
                    Finding(
                        rule=FRAMEWORK_RULE,
                        path=self.rel,
                        line=suppression.line,
                        message=(
                            "suppression without justification: follow "
                            "'disable=<rules>' with the reason it is safe"
                        ),
                        key="unjustified-suppression",
                    )
                )
            unknown = [
                r for r in suppression.rules if r not in all_rule_ids()
            ]
            for rule_id in unknown:
                findings.append(
                    Finding(
                        rule=FRAMEWORK_RULE,
                        path=self.rel,
                        line=suppression.line,
                        message=f"suppression names unknown rule {rule_id}",
                        key=f"unknown-rule:{rule_id}",
                    )
                )
        return findings

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule == FRAMEWORK_RULE or not finding.suppressible:
            return False
        return any(s.covers(finding) for s in self.suppressions)

    # -- hot regions ---------------------------------------------------
    def hot_spans(self) -> list[tuple[int, int]]:
        """Line spans of every loop governed by a ``hot`` marker."""
        if self._hot_spans is not None:
            return self._hot_spans
        spans: list[tuple[int, int]] = []
        hot_functions: list[tuple[int, int]] = []
        for node in ast.walk(self.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and self._marked(node.lineno):
                hot_functions.append((node.lineno, node.end_lineno or 0))
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.For, ast.While)):
                continue
            end = node.end_lineno or node.lineno
            if self._marked(node.lineno) or any(
                start <= node.lineno <= stop
                for start, stop in hot_functions
            ):
                spans.append((node.lineno, end))
                if isinstance(node, ast.While):
                    self._hot_while_headers.add(node.lineno)
        self._hot_spans = spans
        return spans

    def _marked(self, lineno: int) -> bool:
        return lineno in self.hot_marks or (lineno - 1) in self.hot_marks

    def in_hot_span(self, lineno: int) -> bool:
        """Whether ``lineno`` executes once per hot-loop iteration.

        A ``for`` header is excluded (its iterable is evaluated once),
        but a ``while`` header is hot: its condition re-runs every
        iteration, so an allocation there is a per-iteration cost.
        """
        spans = self.hot_spans()
        return lineno in self._hot_while_headers or any(
            start < lineno <= end for start, end in spans
        )


def _scan_directives(
    text: str,
) -> list[tuple[str, int, tuple[str, ...], str]]:
    """All ``repro-lint`` comments: ``(kind, line, rules, reason)``.

    Uses :mod:`tokenize` so a directive inside a string literal is not
    mistaken for a real one.
    """
    directives = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE.search(token.string)
        if match is None:
            continue
        kind = match.group("kind")
        rules = tuple(
            rule for rule in (match.group("rules") or "").split(",") if rule
        )
        reason = (match.group("reason") or "").strip(" \t-—:،")
        directives.append((kind, token.start[0], rules, reason))
    return directives


class Project:
    """Everything the rules see: the root, the modules, shared state."""

    def __init__(self, root: Path, modules: list[SourceModule]) -> None:
        self.root = root
        self.modules = modules
        #: cross-module scratch space, keyed by rule id
        self.state: dict[str, object] = {}


class Rule:
    """Base class; subclasses register with :func:`register`."""

    id: str = ""
    name: str = ""
    summary: str = ""

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        return []

    def finish(self, project: Project) -> list[Finding]:
        """Called once after every module was checked."""
        return []


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by id) to the global registry."""
    rule = rule_cls()
    if not rule.id or rule.id in _REGISTRY:
        raise ValueError(f"rule id missing or duplicate: {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> dict[str, Rule]:
    """The registry (import :mod:`repro.analysis.rules` to populate)."""
    return dict(_REGISTRY)


def all_rule_ids() -> set[str]:
    return set(_REGISTRY) | {FRAMEWORK_RULE}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None.

    An attribute hanging off anything that is not a plain name chain
    (a call result, a subscript) resolves to ``.attr`` — callers can
    still match on the trailing method name.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return f".{node.attr}"
        return f"{base}.{node.attr}"
    return None


def is_self_attribute(node: ast.AST, attr: str | None = None) -> bool:
    """Whether ``node`` is ``self.<attr>`` (any attribute when None)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def walk_function_body(
    func: ast.AsyncFunctionDef | ast.FunctionDef,
    *,
    into_nested: bool = False,
):
    """Yield nodes of a function body without entering nested
    functions or lambdas (unless ``into_nested``) — the scope rule
    RL001/RL002 traversals need: a nested ``def`` is its own
    execution context, not part of this one."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not into_nested and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
