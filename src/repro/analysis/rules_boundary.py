"""RL009: every process-pool dispatch is a reviewed hand-off.

Bug class tier-1 cannot see: what crosses a process pool's pickle
boundary.  Pickle round-trips an ndarray or an operator bit for bit,
so a task that ships one decodes exactly what the seed-rebuild design
decodes and every bit-identity pin stays green, while the copy quietly
eats the pool's win (the workers exist to rebuild ``A = Phi Psi`` from
the config seed and cache it, not to be sent it).  No test can tell a
kilobyte task from a megabyte one, so the rule asks a person: every
process-pool dispatch site is a finding unless it carries a justified
``disable=RL009`` that says what crosses there and why it may.

A lambda or a nested ``def`` submitted to a pool is a finding no
``disable`` clears: a closure does not pickle, and a pool whose
callable fails to pickle fails only on the platforms and worker counts
that actually start one.

Dispatch sites recognized:

- ``<pool>.submit(fn, ...)`` / ``<pool>.map|imap|starmap|apply|
  apply_async|map_async(fn, ...)`` where the receiver is a
  ``multiprocessing.Pool``/``ProcessPoolExecutor`` value or a name
  containing ``pool``/``process`` (but not ``thread``);
- ``loop.run_in_executor(executor, fn, ...)`` when the executor
  expression names a process pool (``None`` and ``*thread*``
  executors do not pickle — exempt).

The stack has exactly one such site:
:meth:`repro.fleet.executor.SolveExecutor.submit`, the seam both the
fleet engine and the live gateway dispatch through, and it carries the
stack's one justified ``disable=RL009``; a second pool anywhere is a
new finding.
"""

from __future__ import annotations

import ast

from .core import (
    Finding,
    Project,
    Rule,
    SourceModule,
    dotted_name,
    register,
    walk_function_body,
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
        "every process-pool dispatch carries a justified disable naming "
        "what crosses; lambdas and nested functions are never submitted"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        findings: list[Finding] = []
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            pools = self._pool_locals(func)
            for call in walk_function_body(func):
                if isinstance(call, ast.Call):
                    site = self._dispatch_site(call, pools)
                    if site is not None:
                        findings.extend(
                            self._check_site(module, func, call, *site)
                        )
        return findings

    @staticmethod
    def _pool_locals(func) -> set[str]:
        """Names assigned from a Pool/ProcessPoolExecutor factory."""
        pools: set[str] = set()
        for node in walk_function_body(func):
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

    @staticmethod
    def _dispatch_site(
        call: ast.Call, pools: set[str]
    ) -> tuple[str, ast.expr | None] | None:
        """``(site label, submitted fn)`` when ``call`` dispatches to a
        process pool, else None."""
        if not isinstance(call.func, ast.Attribute):
            return None
        method = call.func.attr
        receiver = dotted_name(call.func.value) or ""
        if method == "run_in_executor":
            if not call.args:
                return None
            executor = call.args[0]
            if isinstance(executor, ast.Constant) and executor.value is None:
                return None  # default thread pool: no pickling
            if not _names_pool_of_processes(dotted_name(executor) or ""):
                return None
            fn = call.args[1] if len(call.args) > 1 else None
            return f"{receiver}.{method}", fn
        if method in _POOL_METHODS and (
            receiver in pools or _names_pool_of_processes(receiver)
        ):
            return f"{receiver}.{method}", call.args[0] if call.args else None
        return None

    def _check_site(
        self,
        module: SourceModule,
        func,
        call: ast.Call,
        label: str,
        fn: ast.expr | None,
    ) -> list[Finding]:
        findings = [
            Finding(
                rule=self.id,
                path=module.rel,
                line=call.lineno,
                message=(
                    f"process-pool dispatch {label}() in {func.name}: "
                    f"what crosses here is pickled per task; justify "
                    f"with disable=RL009 naming what crosses and why "
                    f"workers cannot rebuild it from the config seed"
                ),
                key=f"dispatch:{func.name}:{label}",
            )
        ]
        closure = None
        if isinstance(fn, ast.Lambda):
            closure, key = "lambda", f"closure:{func.name}"
        elif isinstance(fn, ast.Name) and self._is_nested_def(func, fn.id):
            closure, key = f"nested function {fn.id}()", (
                f"closure:{func.name}:{fn.id}"
            )
        if closure is not None:
            findings.append(
                Finding(
                    rule=self.id,
                    path=module.rel,
                    line=call.lineno,
                    message=(
                        f"{closure} submitted to a process pool; closures "
                        f"do not pickle — dispatch a module-level function"
                    ),
                    key=key,
                    suppressible=False,
                )
            )
        return findings

    @staticmethod
    def _is_nested_def(func, name: str) -> bool:
        return any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func
            and node.name == name
            for node in ast.walk(func)
        )
