"""RL002: lock discipline in classes that own a ``threading.Lock``.

:class:`~repro.telemetry.core.MetricsRegistry` is touched by the event
loop, the gateway's solve threads and the realtime simulator at once;
its correctness rests on the convention that every mutation of the
instrument maps happens under ``self._lock``.  This rule is a
lightweight static race detector for that convention: in any class
that assigns a ``threading.Lock``/``RLock`` to an attribute, an
instance attribute that is written *both* inside and outside a
``with self.<lock>:`` block (outside ``__init__``, which publishes the
object before any concurrency exists) is flagged at each unguarded
write site.

Writes counted: plain/augmented/annotated assignment to ``self.x``,
item assignment through it (``self.x[k] = v`` mutates the guarded
structure just as surely), and a statement whose value is an in-place
container call on it (``self.x.append(v)``, ``w = self.x.pop()``).
Reads are deliberately not flagged — lock-free reads of monotonic
state are a legitimate pattern and the signal-to-noise would collapse.

Tier-1 cannot see this bug class: an unguarded write loses an update
or hands one workspace to two solves only under a thread interleaving
no test forces, and every single-threaded run decodes the same bits.
"""

from __future__ import annotations

import ast

from .core import (
    Finding,
    Project,
    Rule,
    SourceModule,
    dotted_name,
    is_self_attribute,
    register,
    walk_function_body,
)

_LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "Lock", "RLock"}
)
_UNGUARDED_OK = frozenset({"__init__", "__new__", "__post_init__"})
#: list/deque/dict/set/OrderedDict methods that mutate their receiver
_MUTATORS = frozenset(
    "add append appendleft clear discard extend insert move_to_end pop "
    "popitem popleft remove setdefault update".split()
)


def _lock_attributes(cls: ast.ClassDef) -> set[str]:
    """Attributes assigned a Lock/RLock anywhere in the class body."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        if dotted_name(node.value.func) not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            if is_self_attribute(target):
                locks.add(target.attr)
    return locks


def _write_targets(node: ast.stmt):
    """Self-attribute names written by one statement."""
    yield from _mutated(node)
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    for target in targets:
        base = target
        # unwrap item/slice writes: self.x[k] = v mutates self.x
        while isinstance(base, ast.Subscript):
            base = base.value
        if is_self_attribute(base):
            yield base.attr
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                if is_self_attribute(element):
                    yield element.attr


def _mutated(node: ast.stmt):
    """``x`` when the statement's value is ``self.x.<mutator>(...)``."""
    call = getattr(node, "value", None)
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in _MUTATORS
        and is_self_attribute(call.func.value)
    ):
        yield call.func.value.attr


@register
class LockDisciplineRule(Rule):
    id = "RL002"
    name = "lock-discipline"
    summary = (
        "in classes owning a threading.Lock, attributes written under "
        "the lock must not also be written outside it"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        findings = []
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef):
                findings.extend(self._check_class(cls, module))
        return findings

    def _check_class(
        self, cls: ast.ClassDef, module: SourceModule
    ) -> list[Finding]:
        locks = _lock_attributes(cls)
        if not locks:
            return []
        guarded: set[str] = set()
        unguarded: list[tuple[str, int]] = []  # (attr, line)
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            init = method.name in _UNGUARDED_OK
            self._walk(method.body, False, init, locks, guarded, unguarded)
        findings = []
        for attr, line in unguarded:
            if attr in guarded:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.rel,
                        line=line,
                        message=(
                            f"self.{attr} is written under "
                            f"{cls.name}'s lock elsewhere but written "
                            f"here without it"
                        ),
                        key=f"{cls.name}.{attr}",
                    )
                )
        return findings

    def _walk(
        self,
        body: list[ast.stmt],
        held: bool,
        init: bool,
        locks: set[str],
        guarded: set[str],
        unguarded: list[tuple[str, int]],
    ) -> None:
        for node in body:
            now_held = held
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(
                    is_self_attribute(item.context_expr, lock)
                    or (
                        isinstance(item.context_expr, ast.Call)
                        and any(
                            is_self_attribute(
                                item.context_expr.func, lock
                            )
                            for lock in locks
                        )
                    )
                    for item in node.items
                    for lock in locks
                ):
                    now_held = True
            for attr in _write_targets(node):
                if attr in locks:
                    continue
                if now_held:
                    guarded.add(attr)
                elif not init:
                    unguarded.append((attr, node.lineno))
            # a nested def is a separate call context: even when defined
            # under `with self._lock:`, it may be stored and invoked later
            # without the lock, so its body is walked as unguarded
            nested = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            child_held = False if nested else now_held
            for child_body in self._child_bodies(node):
                self._walk(
                    child_body, child_held, init, locks, guarded, unguarded
                )

    @staticmethod
    def _child_bodies(node: ast.stmt) -> list[list[ast.stmt]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return [node.body]
        bodies = []
        for name in ("body", "orelse", "finalbody"):
            value = getattr(node, name, None)
            if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt
            ):
                bodies.append(value)
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                bodies.append(handler.body)
        if isinstance(node, ast.Match):
            bodies.extend(case.body for case in node.cases)
        return bodies
