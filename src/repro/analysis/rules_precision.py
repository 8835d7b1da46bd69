"""RL007: no float64 promotion inside hot / f32 regions.

PR 8's 2.18x hybrid speedup holds only while the float32 FISTA leg
*stays* float32: one float64 operand in a binop — a ``np.float64``
scalar, a 64-bit buffer, an allocator left at numpy's float64 default
— and numpy silently promotes the whole expression, doubling the
GEMM/elementwise cost while every correctness test stays green.  This
rule runs the value-kind lattice (:mod:`repro.analysis.dataflow`) over
every function and, inside ``# repro-lint: hot`` loops and
``# repro-lint: f32`` regions (the solver's float32 leg,
``sparse_apply``'s kernels), reports:

- a binary op or binary ufunc call whose inferred operand kinds mix
  ``f32-array`` with ``f64-array`` — a forced float64 promotion;
- a fresh-allocation call (``np.zeros/empty/ones/full``) with no
  ``dtype=`` argument — it defaults to float64 no matter what flows
  into it.

Deliberate precision exits (accumulating norms in float64, the
float64 polish hand-off) are exactly that — deliberate — and carry a
justified ``disable=RL007``.
"""

from __future__ import annotations

import ast

from .core import Finding, Project, Rule, SourceModule, dotted_name, register
from .dataflow import (
    ALLOC_DEFAULT_F64,
    F32,
    F64,
    UFUNCS,
    _NUMPY_ROOTS,
    analyze_functions,
    dtype_arg,
)


@register
class PrecisionFlowRule(Rule):
    id = "RL007"
    name = "precision-flow"
    summary = (
        "hot/f32 regions must not promote float32 operands to float64 "
        "or allocate at numpy's float64 default (missing dtype=)"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        if not module.hot_spans() and not module.f32_spans():
            return []
        in_region = lambda line: module.in_hot_span(  # noqa: E731
            line
        ) or module.in_f32_span(line)
        findings: list[Finding] = []
        for func, analysis in analyze_functions(module.tree):
            span = range(func.lineno, (func.end_lineno or func.lineno) + 1)
            if not any(in_region(line) for line in span):
                continue
            for node in ast.walk(func):
                if not in_region(getattr(node, "lineno", 0)):
                    continue
                if isinstance(node, ast.BinOp):
                    left = analysis.kind_of(node.left)
                    right = analysis.kind_of(node.right)
                    findings.extend(
                        self._promotion(module, func, node, left, right)
                    )
                elif isinstance(node, ast.Call):
                    findings.extend(
                        self._check_call(module, func, analysis, node)
                    )
        return findings

    def _promotion(
        self,
        module: SourceModule,
        func,
        node: ast.AST,
        left: str,
        right: str,
    ) -> list[Finding]:
        if {left, right} != {F32, F64}:
            return []
        return [
            Finding(
                rule=self.id,
                path=module.rel,
                line=node.lineno,
                message=(
                    f"float64 promotion in a float32 region: "
                    f"{left} combined with {right}; cast the float64 "
                    f"side (or justify with disable=RL007)"
                ),
                key=f"promotion:{func.name}:{left}x{right}",
            )
        ]

    def _check_call(
        self,
        module: SourceModule,
        func,
        analysis,
        node: ast.Call,
    ) -> list[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return []
        parts = name.split(".")
        if len(parts) != 2 or parts[0] not in _NUMPY_ROOTS:
            return []
        tail = parts[1]
        if tail in ALLOC_DEFAULT_F64:
            if dtype_arg(node, tail) is None:
                return [
                    Finding(
                        rule=self.id,
                        path=module.rel,
                        line=node.lineno,
                        message=(
                            f"{name}() without dtype= in a hot/f32 "
                            f"region allocates float64; pass the "
                            f"working dtype explicitly"
                        ),
                        key=f"alloc-no-dtype:{func.name}:{name}",
                    )
                ]
            return []
        if tail in UFUNCS and len(node.args) >= 2:
            kinds = [analysis.kind_of(arg) for arg in node.args[:2]]
            return self._promotion(
                module, func, node, kinds[0], kinds[1]
            )
        return []
