"""repro-lint: static invariant checks for the decode stack.

A zero-dependency (stdlib ``ast``/``tokenize``) lint framework plus
the project-specific rules that machine-check the conventions the
stack's correctness rests on.  A rule is kept only for a bug class
the tier-1 tests cannot see — one that moves cost, concurrency or a
name but leaves every decoded bit alone:

========  ==================  ============================================
rule id   name                invariant
========  ==================  ============================================
RL001     async-blocking      no blocking IO/sleep or direct solver calls
                              inside ``async def`` bodies
RL002     lock-discipline     attributes guarded by a ``threading.Lock``
                              are never written outside it
RL003     hot-loop-alloc      ``# repro-lint: hot`` loops allocate no
                              arrays (BatchWorkspace arena discipline)
RL004     telemetry-catalog   every metric name/kind/label is declared in
                              :mod:`repro.telemetry.catalog`
RL005     exception-hygiene   broad excepts are justified; load-bearing
                              errors are never silently swallowed
RL006     docs-drift          README tracks the CLI surface
RL008     await-atomicity     shared state is re-validated after an
                              ``await`` before it is acted on
RL009     process-boundary    every process-pool dispatch carries a
                              justified ``disable``; no closure is
                              submitted
RL010     frame-dispatch      every ``FrameKind`` dispatch handles all
                              members or has a default arm
========  ==================  ============================================

Run it as ``repro-ecg lint`` or ``python -m repro.analysis``; see
``docs/architecture.md`` for the suppression workflow.
"""

from .core import (
    FRAMEWORK_RULE,
    Finding,
    Project,
    Rule,
    SourceModule,
    all_rules,
    register,
)
from .runner import discover_files, main, run_lint

__all__ = [
    "FRAMEWORK_RULE",
    "Finding",
    "Project",
    "Rule",
    "SourceModule",
    "all_rules",
    "discover_files",
    "main",
    "register",
    "run_lint",
]
