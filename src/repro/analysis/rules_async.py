"""RL001: no blocking calls inside ``async def`` bodies.

The gateway's 2-second node-to-display budget dies quietly when a
coroutine blocks the event loop: every connected stream's frames stop
being read, flush deadlines slip, and nothing crashes.  The convention
(solves and file IO leave the loop through ``run_in_executor`` /
``asyncio.to_thread``) is enforced here: a *direct call* to a known
blocking primitive or a solver entry point inside an ``async def``
body is a finding.

Tier-1 cannot see this bug class while the blocking call is short: a
``time.sleep(0)`` in place of the ``await asyncio.sleep(0)`` that
hands a solve thread the GIL changes no decoded bit and no batch a
test pins, only every stream's latency.  (A whole solve run inline
blocks long enough to stop cross-stream batching, which tier-1 sees.)

Passing the callable *by reference* to an executor is naturally clean
(``loop.run_in_executor(None, solve_measurement_block, task)`` has no
call node for the solver).  Lambda bodies are skipped — in async code
they are executor thunks, which run off-loop.  Nested ``def``/(async)
functions are their own scopes and are checked separately.
"""

from __future__ import annotations

import ast

from .core import Finding, Project, Rule, SourceModule, dotted_name, register
from .core import walk_function_body

#: exact dotted calls that block the calling thread
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "urllib.request.urlopen",
    }
)

#: bare built-in names that open blocking file IO on the loop
BLOCKING_BARE = frozenset({"open", "input"})

#: decode-stack solver entry points (module-level functions): a solve
#: is tens of milliseconds of GEMMs — never run it on the event loop
SOLVER_CALLS = frozenset({"solve_measurement_block", "batched_fista"})

#: method names treated as solver entry points (``BatchedFista.solve``
#: and the serial solver objects share the name)
SOLVER_METHODS = frozenset({"solve"})


@register
class AsyncBlockingRule(Rule):
    id = "RL001"
    name = "async-blocking"
    summary = (
        "no blocking IO/sleep or direct solver calls inside async def "
        "bodies; dispatch through run_in_executor / asyncio.to_thread"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        findings = []
        for func in ast.walk(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in walk_function_body(func):
                if not isinstance(node, ast.Call):
                    continue
                offense = self._classify(node)
                if offense is None:
                    continue
                called, why = offense
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.rel,
                        line=node.lineno,
                        message=(
                            f"{why} call {called}() inside async def "
                            f"{func.name}; run it off-loop via "
                            f"run_in_executor/to_thread"
                        ),
                        key=called,
                    )
                )
        return findings

    @staticmethod
    def _classify(call: ast.Call) -> tuple[str, str] | None:
        name = dotted_name(call.func)
        if name is None:
            return None
        if name in BLOCKING_CALLS or name in BLOCKING_BARE:
            return name, "blocking"
        tail = name.rsplit(".", 1)[-1]
        if tail in SOLVER_CALLS:
            return name, "solver"
        if "." in name and tail in SOLVER_METHODS:
            return name, "solver"
        return None
