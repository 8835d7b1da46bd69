"""RL010: every FrameKind dispatch handles all members or a default.

PR 7 added PARITY and NACK to the wire protocol by *hand-auditing*
every ``if kind is FrameKind...`` chain in the stack — the exact kind
of sweep that misses one site the next time a frame kind lands.  This
rule automates it: a dispatch over :class:`FrameKind` (an ``elif``
chain of ``== / is / in`` tests against ``FrameKind`` members, or a
``match`` over them) must either handle every member of the enum or
carry an explicit default (a final ``else:`` / ``case _:``), so an
unhandled kind is a deliberate, visible decision — not a silent drop.

A *single* ``if`` with no ``else`` is a guard (``if kind is ERROR:
raise``), not a dispatch, and stays exempt.  The enum's members are
read from the ``class FrameKind`` definition wherever it appears in
the linted tree (cross-module, via the rule's ``finish`` hook); when
no definition is in view the rule stays silent rather than guessing.

Tier-1 cannot see this bug class where no test sends the dropped kind:
a dispatch that names today's members and nothing else behaves exactly
like one with a default arm until the next frame kind lands.
"""

from __future__ import annotations

import ast

from .core import Finding, Project, Rule, SourceModule, dotted_name, register

_ENUM_NAME = "FrameKind"


def _frame_members(test: ast.expr) -> tuple[str | None, set[str]] | None:
    """``(subject, members)`` when ``test`` compares something against
    FrameKind members (``x == FrameKind.A``, ``x is FrameKind.A``,
    ``x in (FrameKind.A, FrameKind.B)``), else None."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    op = test.ops[0]
    left, right = test.left, test.comparators[0]
    if isinstance(op, (ast.Eq, ast.Is, ast.NotEq, ast.IsNot)):
        member = _member_of(right) or _member_of(left)
        if member is None:
            return None
        subject = dotted_name(left if _member_of(right) else right)
        if isinstance(op, (ast.NotEq, ast.IsNot)):
            # `x is not FrameKind.A: raise` guards are not dispatch arms
            return None
        return subject, {member}
    if isinstance(op, ast.In) and isinstance(
        right, (ast.Tuple, ast.List, ast.Set)
    ):
        members = {_member_of(e) for e in right.elts}
        if None in members or not members:
            return None
        return dotted_name(left), set(members)  # type: ignore[arg-type]
    return None


def _member_of(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == _ENUM_NAME
    ):
        return node.attr
    return None


@register
class FrameDispatchRule(Rule):
    id = "RL010"
    name = "frame-dispatch"
    summary = (
        "dispatches over FrameKind must handle every member or carry "
        "an explicit default (else / case _)"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        state = project.state.setdefault(
            self.id, {"members": None, "sites": []}
        )
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name == _ENUM_NAME
            ):
                members = {
                    target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if isinstance(target, ast.Name)
                }
                if members:
                    state["members"] = members
            elif isinstance(node, ast.If):
                self._record_chain(module, node, state)
            elif isinstance(node, ast.Match):
                self._record_match(module, node, state)
        return []

    def finish(self, project: Project) -> list[Finding]:
        state = project.state.get(self.id)
        if not state or state["members"] is None:
            return []
        members: set[str] = state["members"]
        findings = []
        for rel, line, handled, has_default, context in state["sites"]:
            if has_default:
                continue
            missing = sorted(members - handled)
            if not missing:
                continue
            findings.append(
                Finding(
                    rule=self.id,
                    path=rel,
                    line=line,
                    message=(
                        f"FrameKind dispatch without a default leaves "
                        f"{', '.join(missing)} unhandled; add an "
                        f"explicit else (raise/ignore) or cover every "
                        f"member"
                    ),
                    key=f"dispatch:{context}:{'|'.join(missing)}",
                )
            )
        return findings

    # ------------------------------------------------------------------
    def _record_chain(
        self, module: SourceModule, node: ast.If, state: dict
    ) -> None:
        # only chain heads: an elif arm shows up as its parent's orelse
        if getattr(node, "_rl010_arm", False):
            return
        chain = [node]
        while (
            len(chain[-1].orelse) == 1
            and isinstance(chain[-1].orelse[0], ast.If)
        ):
            arm = chain[-1].orelse[0]
            arm._rl010_arm = True  # type: ignore[attr-defined]
            chain.append(arm)
        arms = [_frame_members(arm.test) for arm in chain]
        if any(arm is None for arm in arms):
            return
        if len(chain) < 2:
            return  # a lone `if` is a guard, not a dispatch
        handled: set[str] = set()
        for arm in arms:
            handled |= arm[1]  # type: ignore[index]
        has_default = bool(chain[-1].orelse)
        state["sites"].append(
            (
                module.rel,
                node.lineno,
                handled,
                has_default,
                f"{module.rel}:{_subject_of(arms)}",
            )
        )

    def _record_match(
        self, module: SourceModule, node: ast.Match, state: dict
    ) -> None:
        handled: set[str] = set()
        has_default = False
        saw_frame_member = False
        for case in node.cases:
            pattern = case.pattern
            if (
                isinstance(pattern, ast.MatchAs)
                and pattern.pattern is None
            ):
                if case.guard is None:
                    has_default = True
                continue
            for value in _pattern_values(pattern):
                member = _member_of(value)
                if member is not None:
                    saw_frame_member = True
                    handled.add(member)
        if not saw_frame_member:
            return
        subject = dotted_name(node.subject) or "<subject>"
        state["sites"].append(
            (
                module.rel,
                node.lineno,
                handled,
                has_default,
                f"{module.rel}:{subject}",
            )
        )


def _pattern_values(pattern: ast.pattern) -> list[ast.expr]:
    values: list[ast.expr] = []
    for node in ast.walk(pattern):
        if isinstance(node, ast.MatchValue):
            values.append(node.value)
    return values


def _subject_of(arms) -> str:
    for arm in arms:
        if arm is not None and arm[0]:
            return arm[0]
    return "<subject>"
