"""RL009: only rebuild-from-seed material crosses a process boundary.

PR 2's fleet design — and the gateway's process-pool path after it —
rests on one invariant: a worker never receives a matrix.  Tasks carry
scalar config dicts and seeds; the worker rebuilds ``A = Phi Psi^-1``
from the seed and caches it.  Ship a whole operator (or an ndarray
nobody sized) instead and the pickle cost quietly eats the sharding
win (and a future non-picklable operator breaks the pool outright).
This rule checks it statically: at every process-dispatch site, each
argument's inferred kind (:mod:`repro.analysis.dataflow`) must stay
off the violation list (``f32-array``/``f64-array``/
``ndarray-unknown``/``operator``), and the submitted callable must not
be a lambda or a nested function (a closure does not pickle).

Dispatch sites recognized:

- ``<pool>.submit(fn, *args)`` / ``<pool>.map|imap|starmap|apply|
  apply_async|map_async(fn, iterable)`` where the receiver is a
  ``multiprocessing.Pool``/``ProcessPoolExecutor`` value or a name
  containing ``pool``/``process`` (but not ``thread``);
- ``loop.run_in_executor(executor, fn, *args)`` when the executor
  expression names a process pool (``None`` and ``*thread*``
  executors do not pickle — exempt).

The stack has exactly one such site:
:meth:`repro.fleet.executor.SolveExecutor.submit`, the seam both the
fleet engine and the live gateway dispatch through.  Its ``task``
parameter is annotated with what a solve task holds (a ``dict`` whose
values include ``np.ndarray`` — annotations seed the kind analysis),
so the rule sees the pooled *measurement columns* (kilobytes of float
data, stages 1-2 having run in the caller) that cross there by design;
the site carries the stack's one justified ``disable=RL009``, and a
second pool anywhere is a new finding — every new array crossing stays
a conscious decision.
"""

from __future__ import annotations

import ast

from .core import Finding, Project, Rule, SourceModule, dotted_name, register
from .dataflow import (
    BOUNDARY_VIOLATIONS,
    KindAnalysis,
    module_return_kinds,
)

_POOL_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply",
     "apply_async", "map_async", "starmap_async"}
)
_POOL_FACTORY_TAILS = frozenset({"Pool", "ProcessPoolExecutor"})


def _names_pool_of_processes(name: str) -> bool:
    lowered = name.lower()
    if "thread" in lowered:
        return False
    return "process" in lowered or "pool" in lowered


@register
class ProcessBoundaryRule(Rule):
    id = "RL009"
    name = "process-boundary"
    summary = (
        "process-pool submissions may carry only picklable rebuild "
        "material (wire bytes, configs, codebooks, seeds) — no "
        "ndarrays, operators, or closures"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        findings: list[Finding] = []
        returns = module_return_kinds(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            pools = self._pool_locals(node)
            sites = [
                (call, shape)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and (shape := self._dispatch_shape(call, pools))
                is not None
            ]
            if not sites:
                continue
            analysis = KindAnalysis(node, returns).run()
            for call, (fn, payloads) in sites:
                findings.extend(
                    self._check_site(module, node, analysis, call, fn,
                                     payloads)
                )
        return findings

    # ------------------------------------------------------------------
    @staticmethod
    def _pool_locals(func) -> set[str]:
        """Names assigned from a Pool/ProcessPoolExecutor factory."""
        pools: set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            called = dotted_name(node.value.func) or ""
            if called.split(".")[-1] in _POOL_FACTORY_TAILS:
                for target in node.targets:
                    name = dotted_name(target)
                    if name is not None:
                        pools.add(name)
        return pools

    def _dispatch_shape(
        self, call: ast.Call, pools: set[str] | None = None
    ) -> tuple[ast.expr | None, list[ast.expr]] | None:
        """``(submitted_fn, payload_exprs)`` when ``call`` is a
        process-dispatch site, else None."""
        pools = pools or set()
        if not isinstance(call.func, ast.Attribute):
            return None
        method = call.func.attr
        receiver = dotted_name(call.func.value) or ""
        if method == "run_in_executor":
            if not call.args:
                return None
            executor = call.args[0]
            executor_name = dotted_name(executor) or ""
            if isinstance(executor, ast.Constant) and executor.value is None:
                return None  # default thread pool: no pickling
            if not _names_pool_of_processes(executor_name):
                return None
            fn = call.args[1] if len(call.args) > 1 else None
            return fn, list(call.args[2:])
        if method in _POOL_METHODS:
            if not (receiver in pools or _names_pool_of_processes(receiver)):
                return None
            fn = call.args[0] if call.args else None
            return fn, list(call.args[1:])
        return None

    def _check_site(
        self,
        module: SourceModule,
        func,
        analysis: KindAnalysis,
        call: ast.Call,
        fn: ast.expr | None,
        payloads: list[ast.expr],
    ) -> list[Finding]:
        findings: list[Finding] = []
        if isinstance(fn, ast.Lambda):
            findings.append(
                Finding(
                    rule=self.id,
                    path=module.rel,
                    line=call.lineno,
                    message=(
                        "lambda submitted to a process pool; closures "
                        "do not pickle — dispatch a module-level "
                        "function"
                    ),
                    key=f"closure:{func.name}",
                )
            )
        elif isinstance(fn, ast.Name) and self._is_nested_def(func, fn.id):
            findings.append(
                Finding(
                    rule=self.id,
                    path=module.rel,
                    line=call.lineno,
                    message=(
                        f"nested function {fn.id}() submitted to a "
                        f"process pool; closures do not pickle — "
                        f"dispatch a module-level function"
                    ),
                    key=f"closure:{func.name}:{fn.id}",
                )
            )
        for payload in payloads:
            kind = analysis.kind_of(payload)
            if kind in BOUNDARY_VIOLATIONS:
                label = (
                    dotted_name(payload)
                    or type(payload).__name__.lower()
                )
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.rel,
                        line=payload.lineno,
                        message=(
                            f"{kind} payload ({label}) crosses a "
                            f"process boundary; workers rebuild from "
                            f"seeds — ship wire bytes/configs/"
                            f"codebooks/seeds instead (or justify "
                            f"with disable=RL009)"
                        ),
                        key=f"payload:{func.name}:{label}:{kind}",
                    )
                )
        return findings

    @staticmethod
    def _is_nested_def(func, name: str) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not func
                and node.name == name
            ):
                return True
        return False
