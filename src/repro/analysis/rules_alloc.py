"""RL003: no array allocations inside marked hot loops.

The batched FISTA loop is the multiplier under every throughput number
in the stack — gateway, fleet and federation all sit on it.  Its
discipline (one GEMM pair per iteration, elementwise math in
preallocated :class:`~repro.solvers.batched.BatchWorkspace` buffers)
is worth nothing if a later edit quietly drops an ``np.zeros`` into
the loop: correctness tests still pass, the ROADMAP raw-speed pass
just got slower.  This rule freezes the discipline: inside any loop
marked ``# repro-lint: hot`` (see :mod:`repro.analysis.core`), a call
to a numpy allocator or a ``.copy()`` is a finding.

Intentional allocations (the batched solver's working-set compaction,
which is amortized and *shrinks* the arrays) carry a justified
``disable=RL003`` suppression on their enclosing statement.

Tier-1 cannot see this bug class: an allocation added to a loop that
keeps its data flow changes no bit, only the cost of every solve.
"""

from __future__ import annotations

import ast

from .core import Finding, Project, Rule, SourceModule, dotted_name, register

#: numpy namespace functions that allocate a fresh array
NUMPY_ALLOCATORS = frozenset(
    {
        "zeros",
        "zeros_like",
        "empty",
        "empty_like",
        "ones",
        "ones_like",
        "full",
        "full_like",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "tile",
        "repeat",
        "copy",
        "ascontiguousarray",
        "asfortranarray",
        "array",
    }
)

_NUMPY_ROOTS = frozenset({"np", "numpy"})


@register
class HotLoopAllocRule(Rule):
    id = "RL003"
    name = "hot-loop-alloc"
    summary = (
        "loops marked '# repro-lint: hot' must not allocate arrays "
        "(np.zeros/empty/..., .copy()); use the BatchWorkspace arena"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        if not module.hot_spans():
            return []
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not module.in_hot_span(node.lineno):
                continue
            called = self._allocator(node)
            if called is None:
                continue
            findings.append(
                Finding(
                    rule=self.id,
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"allocation {called}() inside a hot loop; "
                        f"preallocate outside the loop (BatchWorkspace) "
                        f"or justify with a disable=RL003 suppression"
                    ),
                    key=called,
                )
            )
        return findings

    @staticmethod
    def _allocator(call: ast.Call) -> str | None:
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        if (
            len(parts) == 2
            and parts[0] in _NUMPY_ROOTS
            and parts[1] in NUMPY_ALLOCATORS
        ):
            return name
        # method-style copies allocate wherever they appear
        if len(parts) >= 2 and parts[-1] == "copy":
            return name
        return None
