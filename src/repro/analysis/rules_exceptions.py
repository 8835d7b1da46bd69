"""RL005: exception hygiene on the decode path.

Two failure modes this rule exists for:

- a **broad handler** (``except:``, ``except Exception``,
  ``except BaseException``) that was written to keep a loop alive and
  then silently eats a programming error three PRs later.  Broad
  handlers are sometimes the right call (the gateway's drain loop must
  survive arbitrary solve failures) — but each one must say so, with a
  justified ``disable=RL005`` suppression;
- a handler that catches one of the stack's *load-bearing* error types
  (``ProtocolError`` — a node speaking garbage; ``TelemetryError`` — a
  corrupted metrics plane) and does nothing at all.  Dropping these on
  the floor turns a diagnosable wire bug into silent data loss.

Tier-1 cannot see the first: a handler widened to ``except Exception``
behaves exactly like the narrow one on every failure a test drives,
and differs only on the programming error it will hide later.
"""

from __future__ import annotations

import ast

from .core import Finding, Project, Rule, SourceModule, register

_BROAD = frozenset({"Exception", "BaseException"})

#: error types that must never be swallowed with a no-op handler
LOAD_BEARING_ERRORS = frozenset({"ProtocolError", "TelemetryError"})


def _names(expr: ast.expr | None) -> list[str]:
    """Exception class names of one ``except`` clause."""
    if expr is None:
        return []
    nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _is_noop(body: list[ast.stmt]) -> bool:
    """Whether a handler body does nothing (``pass`` / bare ``...``)."""
    for node in body:
        if isinstance(node, ast.Pass):
            continue
        if isinstance(node, ast.Expr) and isinstance(
            node.value, ast.Constant
        ) and node.value.value is Ellipsis:
            continue
        return False
    return True


@register
class ExceptionHygieneRule(Rule):
    id = "RL005"
    name = "exception-hygiene"
    summary = (
        "no bare/broad excepts without a justified suppression; no "
        "silent swallow of ProtocolError/TelemetryError"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _names(node.type)
            if node.type is None or any(n in _BROAD for n in names):
                caught = " ".join(names) if names else "everything"
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.rel,
                        line=node.lineno,
                        message=(
                            f"broad except ({caught}): narrow the "
                            f"types, or keep it with a justified "
                            f"disable=RL005 suppression"
                        ),
                        key="broad-except",
                    )
                )
                continue
            swallowed = sorted(
                set(names) & LOAD_BEARING_ERRORS
            )
            if swallowed and _is_noop(node.body):
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.rel,
                        line=node.lineno,
                        message=(
                            f"{', '.join(swallowed)} swallowed by a "
                            f"no-op handler; count it, log it, or "
                            f"re-raise"
                        ),
                        key=f"swallow:{','.join(swallowed)}",
                    )
                )
        return findings
