"""RL008: shared state must be re-validated across an ``await``.

Every ``await`` is a scheduling point: any other task — another
session's read loop, another group's drain loop, ``close()`` — may run
and mutate shared state before control returns.  The gateway's
recovery/backpressure machines are built on attributes of ``self`` and
of shared parameters (``session``, ``group``), so a check-then-act
split across an ``await`` is a latent race even on a single-threaded
loop.  Inside every ``async def`` this rule reports:

- **stale-guard write**: an attribute read before an ``await`` and
  written after it, with no re-read between the last ``await`` and
  the write — the write acts on pre-await knowledge;
- **stale-guard use**: an attribute read in an ``if``/``while`` test
  before an ``await`` and *used* after it without a fresh test — the
  classic ``if self._pool is None: ... await ... self._pool.submit``
  shape (the pool may be gone by the time the permit arrives);
- **lock across await**: a synchronous ``with`` on a
  ``threading.Lock``-like object whose body contains an ``await`` —
  the lock is held through arbitrary other tasks' turns.

Only ``self.*`` and ``<parameter>.*`` attribute chains are tracked:
locals are task-private.  The ordering is linear (source order), not
path-sensitive — a loop's header re-test *is* seen as a read before
the awaits in its body, so the common ``while cond: await`` shape
stays silent.  Intentional cross-await patterns carry a justified
``disable=RL008``.

Tier-1 cannot see this bug class outside the one interleaving a test
forces (a ``close()`` landing during ``_dispatch``'s slot wait): a
stale guard misbehaves only when another task runs in the window its
``await`` opens, such as a second ``close()`` while the first awaits
its listener.
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

#: with-context names treated as thread locks (held-across-await check)
_LOCK_FRAGMENTS = ("lock", "mutex")


def _position(node: ast.AST) -> tuple[int, int]:
    return (node.lineno, node.col_offset)


def _end_position(node: ast.AST) -> tuple[int, int]:
    return (
        node.end_lineno or node.lineno,
        node.end_col_offset or node.col_offset,
    )


class _Event:
    __slots__ = ("pos", "end", "kind", "key", "line")

    def __init__(self, node: ast.AST, kind: str, key: str = "") -> None:
        self.pos = _position(node)
        self.end = _end_position(node)
        self.kind = kind  # "await" | "read" | "test-read" | "write"
        self.key = key
        self.line = node.lineno


def _shared_chain(node: ast.Attribute, roots: set[str]) -> str | None:
    """``self.x.y`` -> ``"self.x.y"`` when rooted at self/a parameter."""
    path = dotted_name(node)
    if path is None:
        return None
    root = path.split(".")[0]
    if root not in roots:
        return None
    return path


@register
class AwaitAtomicityRule(Rule):
    id = "RL008"
    name = "await-atomicity"
    summary = (
        "async code must re-validate self./shared attributes after an "
        "await before acting on them, and never hold a threading lock "
        "across an await"
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                findings.extend(self._check_function(module, node))
        return findings

    # ------------------------------------------------------------------
    def _check_function(
        self, module: SourceModule, func: ast.AsyncFunctionDef
    ) -> list[Finding]:
        roots = {"self"} | {
            arg.arg
            for arg in (
                list(func.args.posonlyargs)
                + list(func.args.args)
                + list(func.args.kwonlyargs)
            )
        }
        roots.discard("cls")
        events = self._collect_events(func, roots)
        events.sort(key=lambda e: e.pos)
        findings = self._stale_guards(module, func, events)
        findings.extend(self._locks_across_await(module, func))
        return findings

    def _collect_events(
        self, func: ast.AsyncFunctionDef, roots: set[str]
    ) -> list[_Event]:
        events: list[_Event] = []
        test_spans: list[tuple[tuple[int, int], tuple[int, int]]] = []
        for node in walk_function_body(func):
            if isinstance(node, (ast.If, ast.While)):
                test_spans.append(
                    (_position(node.test), _end_position(node.test))
                )
            elif isinstance(node, ast.Assert):
                test_spans.append(
                    (_position(node.test), _end_position(node.test))
                )
        # only the longest chain of each attribute access is an event:
        # `session.result.error` must not also read "session.result"
        prefixes = {
            id(node.value)
            for node in walk_function_body(func)
            if isinstance(node, ast.Attribute)
        }
        aug_targets = {
            id(node.target)
            for node in walk_function_body(func)
            if isinstance(node, ast.AugAssign)
        }
        for node in walk_function_body(func):
            if isinstance(node, ast.Await):
                events.append(_Event(node, "await"))
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                # a method call *uses* its receiver object: the event
                # RL008 checks against a pre-await guard on it
                key = _shared_chain(node.func.value, roots)
                if key is not None and isinstance(
                    node.func.value, ast.Attribute
                ):
                    events.append(_Event(node.func.value, "read", key))
            elif isinstance(node, ast.Attribute):
                if id(node) in prefixes or id(node) in aug_targets:
                    continue
                key = _shared_chain(node, roots)
                if key is None:
                    continue
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    events.append(_Event(node, "write", key))
                    # a store also implies current knowledge of the
                    # attribute: it re-validates later uses
                    events.append(_Event(node, "refresh", key))
                else:
                    pos = _position(node)
                    in_test = any(
                        start <= pos <= end for start, end in test_spans
                    )
                    events.append(
                        _Event(
                            node, "test-read" if in_test else "read", key
                        )
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Attribute
            ):
                # read-modify-write reads the *current* value at the
                # write site: self-validating, only a refresh
                key = _shared_chain(node.target, roots)
                if key is not None:
                    events.append(_Event(node, "refresh", key))
        return events

    def _stale_guards(
        self,
        module: SourceModule,
        func: ast.AsyncFunctionDef,
        events: list[_Event],
    ) -> list[Finding]:
        awaits = [e for e in events if e.kind == "await"]
        if not awaits:
            return []
        findings: list[Finding] = []
        reported: set[tuple[str, str]] = set()
        for index, event in enumerate(events):
            if event.kind not in ("write", "read"):
                continue
            key = event.key
            if not key or key.count(".") > 2:
                continue
            # the last await that completed strictly before this event
            last_await = None
            for aw in awaits:
                if aw.end <= event.pos and not (
                    aw.pos <= event.pos <= aw.end
                ):
                    last_await = aw
            if last_await is None:
                continue
            # knowledge of `key` before that await?
            if event.kind == "write":
                prior = [
                    e
                    for e in events
                    if e.key == key
                    and e.kind in ("read", "test-read", "refresh")
                    and e.pos < last_await.pos
                ]
                shape = "written"
            else:
                # a plain use is stale only when guarded by a pre-await
                # *test* (check-then-act); ordinary reads after awaits
                # are the normal way to get fresh state
                prior = [
                    e
                    for e in events
                    if e.key == key
                    and e.kind == "test-read"
                    and e.pos < last_await.pos
                ]
                shape = "used"
            if not prior:
                continue
            # re-validated between the await and the event?
            refreshed = any(
                e.key == key
                and e.kind in ("read", "test-read", "refresh")
                and last_await.end <= e.pos < event.pos
                for e in events
                if e is not event
            )
            if refreshed:
                continue
            fingerprint = (key, shape)
            if fingerprint in reported:
                continue
            reported.add(fingerprint)
            findings.append(
                Finding(
                    rule=self.id,
                    path=module.rel,
                    line=event.line,
                    message=(
                        f"{key} checked before an await and {shape} "
                        f"after it without re-validation; another task "
                        f"may have changed it while {func.name} was "
                        f"suspended"
                    ),
                    key=f"stale-guard:{func.name}:{key}:{shape}",
                )
            )
        return findings

    def _locks_across_await(
        self, module: SourceModule, func: ast.AsyncFunctionDef
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in walk_function_body(func):
            if not isinstance(node, ast.With):
                continue
            held = None
            for item in node.items:
                name = dotted_name(item.context_expr) or ""
                target = name.split(".")[-1].lower()
                # threading.Lock()/RLock() entered inline also counts
                if isinstance(item.context_expr, ast.Call):
                    called = dotted_name(item.context_expr.func) or ""
                    target = called.split(".")[-1].lower()
                if any(frag in target for frag in _LOCK_FRAGMENTS):
                    held = name or target
                    break
            if held is None:
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Await):
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=module.rel,
                            line=inner.lineno,
                            message=(
                                f"await while holding threading lock "
                                f"{held}; the lock blocks every other "
                                f"task for the full suspension — use "
                                f"asyncio.Lock or release first"
                            ),
                            key=f"lock-across-await:{func.name}:{held}",
                        )
                    )
                    break
        return findings
