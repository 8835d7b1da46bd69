"""Forward value-kind lattice, one syntax-directed pass per function.

Every expression in an analyzed function gets a *kind* — a coarse
abstraction of what the value is at the process/precision boundaries
the dataflow rules guard:

- ``f32-array`` / ``f64-array``: a numpy array of known float dtype
  (also numpy scalar casts ``np.float32(x)``/``np.float64(x)``, which
  promote exactly like same-dtype arrays);
- ``py-scalar``: Python ints/floats/bools — *weak* in numpy promotion,
  so safe inside a float32 region;
- ``ndarray-unknown``: definitely an array, dtype untracked;
- ``operator``: a solver/operator object (``StructuredOperator``,
  ``BatchedFista``, ...) — never allowed across a process boundary;
- ``seed/config``: rebuild-from-seed material (``SystemConfig``
  dataclass dicts, codebooks, seeds) — the *allowed* boundary payload;
- ``other``: everything else (strings, bytes, locals we cannot type).

Containers (dict/list/tuple displays) are *tainted* by their worst
element: a dict holding an ``f64-array`` value is itself an
``f64-array`` payload for boundary purposes — how RL009 sees an
ndarray smuggled inside a task dict.

The analysis walks a function's statements in source order, carrying
an environment of kinds (assignments, ``astype``/allocator ``dtype=``
arguments, attribute loads, same-module annotated call returns) and
annotating every expression node it evaluates.  The control structure
is the syntax's own:

- ``if``/``try``/``match`` run each arm on a copy of the environment
  and :func:`join` the arms that fall through (a ``try``'s handlers
  start from the join of the states before and after its body);
- ``return``/``raise``/``break``/``continue`` end their path; a
  ``break`` joins the loop's exit, a ``continue`` its back-edge;
- a loop body runs twice, the second time on the join of the state
  before the loop and the state the first pass left, and the loop
  exits on the join of the state before it and the second pass's
  end — the zero-iteration path and one trip round the back-edge.

Known limits, by design (documented in docs/architecture.md §7):
intra-procedural only — unannotated calls and foreign attributes fall
to ``other`` (silence, not noise); a name bound on only one branch
keeps its bound kind at the join; a kind that needs a third trip round
a loop to change is not seen; a handler sees the states before and
after its ``try`` body, not the ones in between.
"""

from __future__ import annotations

import ast

from .core import dotted_name

# -- the public lattice -------------------------------------------------
F32 = "f32-array"
F64 = "f64-array"
SCALAR = "py-scalar"
NDARRAY = "ndarray-unknown"
OPERATOR = "operator"
CONFIG = "seed/config"
OTHER = "other"

#: internal kinds for *dtype values* flowing through variables
#: (``dtype = np.float32 if ... else np.float64``); reported as OTHER
DTYPE32 = "dtype-f32"
DTYPE64 = "dtype-f64"

ARRAY_KINDS = frozenset({F32, F64, NDARRAY})
#: kinds RL009 refuses at a process boundary
BOUNDARY_VIOLATIONS = frozenset({F32, F64, NDARRAY, OPERATOR})
BOUNDARY_KINDS = BOUNDARY_VIOLATIONS

_NUMPY_ROOTS = frozenset({"np", "numpy"})
#: allocators that default to float64 when no ``dtype=`` is given
ALLOC_DEFAULT_F64 = frozenset({"zeros", "empty", "ones", "full"})
#: allocators that inherit dtype from their first argument
ALLOC_LIKE = frozenset(
    {"zeros_like", "empty_like", "ones_like", "full_like"}
)
#: converters/combiners that preserve their (first) argument's dtype
PRESERVE = frozenset(
    {
        "asarray",
        "ascontiguousarray",
        "asfortranarray",
        "array",
        "copy",
        "abs",
        "absolute",
        "negative",
        "square",
        "sign",
        "take",
    }
)
#: binary ufuncs whose result promotes across operands
UFUNCS = frozenset(
    {
        "add",
        "subtract",
        "multiply",
        "divide",
        "true_divide",
        "maximum",
        "minimum",
        "power",
        "hypot",
        "fmod",
        "where",
    }
)
#: combiners over a sequence first argument
COMBINE = frozenset(
    {"stack", "concatenate", "vstack", "hstack", "column_stack", "tile"}
)
#: constructors whose instances must never be pickled to a worker
OPERATOR_FACTORIES = frozenset(
    {
        "StructuredOperator",
        "SparsePhiApply",
        "BatchedFista",
        "BatchWorkspace",
        "SparseBinaryMatrix",
        "WaveletTransform",
    }
)
#: name fragments that mark rebuild-from-seed material
_CONFIG_FRAGMENTS = ("config", "seed", "codebook")


def _taint(kinds: list) -> str:
    """Worst element kind of a container display."""
    flat: list[str] = []
    for kind in kinds:
        if isinstance(kind, tuple):
            flat.append(_taint(list(kind[1])))
        else:
            flat.append(kind)
    for worst in (OPERATOR, F64, F32, NDARRAY):
        if worst in flat:
            return worst
    if flat and all(k in (CONFIG, SCALAR, OTHER) for k in flat):
        if CONFIG in flat:
            return CONFIG
    return OTHER


def join(a: object, b: object) -> object:
    """Lattice merge where paths meet: equal kinds survive, arrays of
    conflicting dtype widen to ``ndarray-unknown``, and a *dangerous*
    kind (array/operator/config) survives a merge with ``other`` — a
    value that may be an ndarray on one path must still be treated as
    one at a process boundary (may-analysis).  Everything else falls
    to ``other``.  Tuple shapes of equal length merge element-wise;
    against anything else a tuple counts as its worst element."""
    if a == b:
        return a
    if isinstance(a, tuple) or isinstance(b, tuple):
        if (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a[1]) == len(b[1])
        ):
            return ("tuple", [join(x, y) for x, y in zip(a[1], b[1])])
        a = _taint(a[1]) if isinstance(a, tuple) else a
        b = _taint(b[1]) if isinstance(b, tuple) else b
        return join(a, b)
    if a in ARRAY_KINDS and b in ARRAY_KINDS:
        return NDARRAY
    survivors = BOUNDARY_VIOLATIONS | {CONFIG}
    if a == OTHER and b in survivors:
        return b
    if b == OTHER and a in survivors:
        return a
    return OTHER


def promote(a: str, b: str) -> str:
    """Numpy binary-op result kind for two operand kinds."""
    if OPERATOR in (a, b):
        return OTHER
    if F64 in (a, b) and a in ARRAY_KINDS and b in ARRAY_KINDS:
        return F64
    if F64 in (a, b) and SCALAR in (a, b):
        return F64
    if F32 in (a, b) and b in (F32, SCALAR) and a in (F32, SCALAR):
        return F32
    if a in ARRAY_KINDS and b in (SCALAR, *ARRAY_KINDS):
        return NDARRAY if NDARRAY in (a, b) else a
    if b in ARRAY_KINDS:
        return NDARRAY if NDARRAY in (a, b) else b
    if a == b == SCALAR:
        return SCALAR
    return OTHER


def dtype_arg(call: ast.Call, tail: str) -> ast.expr | None:
    """A numpy call's dtype argument: ``dtype=``, or for an allocator in
    ``ALLOC_DEFAULT_F64`` the positional one after the shape
    (``np.zeros(shape, dtype)``; after the fill value for
    ``np.full(shape, fill, dtype)``)."""
    for keyword in call.keywords:
        if keyword.arg == "dtype":
            return keyword.value
    if tail in ALLOC_DEFAULT_F64:
        position = 2 if tail == "full" else 1
        if len(call.args) > position:
            return call.args[position]
    return None


def _merge(*envs: dict | None) -> dict | None:
    """Join the environments of the paths that reach a point (``None``
    is a path that left: return/raise/break/continue); ``None`` when
    none does."""
    live = [env for env in envs if env is not None]
    if not live:
        return None
    merged = dict(live[0])
    for env in live[1:]:
        for name, kind in env.items():
            # a name bound on one path only keeps its kind
            merged[name] = join(merged[name], kind) if name in merged else kind
    return merged


# -- shallow statement views --------------------------------------------


def header_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions a statement evaluates itself (a compound
    statement's header), excluding its body statements."""
    if isinstance(stmt, (ast.If, ast.While, ast.Assert)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Expr)):
        return [stmt.value]
    if isinstance(stmt, (ast.Return, ast.AnnAssign)):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    return []


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def bound_names(stmt: ast.stmt | ast.ExceptHandler) -> list[str]:
    """The local names a statement (shallowly) binds."""
    if isinstance(stmt, ast.Assign):
        return [n for target in stmt.targets for n in _target_names(target)]
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
        return _target_names(stmt.target)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [
            name
            for item in stmt.items
            if item.optional_vars is not None
            for name in _target_names(item.optional_vars)
        ]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.name] if stmt.name else []
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return [stmt.name]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [
            (alias.asname or alias.name).split(".")[0]
            for alias in stmt.names
        ]
    return []


def _is_wildcard(case: ast.match_case) -> bool:
    return (
        isinstance(case.pattern, ast.MatchAs)
        and case.pattern.pattern is None
        and case.guard is None
    )


def annotation_kind(annotation: ast.expr | None) -> str | tuple:
    """Map a return/parameter annotation to a kind (or a
    ``("tuple", [kinds])`` shape for tuple annotations)."""
    if annotation is None:
        return OTHER
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return OTHER
    name = dotted_name(annotation)
    if name is not None:
        tail = name.split(".")[-1]
        if tail == "ndarray":
            return NDARRAY
        if tail in ("float", "int", "bool"):
            return SCALAR
        if tail in OPERATOR_FACTORIES:
            return OPERATOR
        if any(frag in tail.lower() for frag in _CONFIG_FRAGMENTS):
            return CONFIG
        return OTHER
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        tail = (base or "").split(".")[-1].lower()
        if tail == "tuple" and isinstance(annotation.slice, ast.Tuple):
            return (
                "tuple",
                [annotation_kind(e) for e in annotation.slice.elts],
            )
        if tail in ("list", "sequence", "iterable", "optional"):
            inner = annotation.slice
            if not isinstance(inner, ast.Tuple):
                return annotation_kind(inner)
        if tail in ("dict", "mapping") and isinstance(
            annotation.slice, ast.Tuple
        ):
            # a mapping is tainted by its values, like a dict display
            return annotation_kind(annotation.slice.elts[-1])
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        # X | None style optionals: the interesting side wins
        left = annotation_kind(annotation.left)
        right = annotation_kind(annotation.right)
        return left if left != OTHER else right
    return OTHER


def module_return_kinds(tree: ast.Module) -> dict[str, object]:
    """Same-module annotated function returns — the one inter-
    procedural assist the tier allows itself."""
    returns: dict[str, object] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kind = annotation_kind(node.returns)
            if kind != OTHER:
                returns[node.name] = kind
    return returns


class KindAnalysis:
    """Run the kind lattice over one function in one syntax-directed
    pass.

    After :meth:`run`, :meth:`kind_of` answers for any expression node
    in the function body (by node identity)."""

    def __init__(
        self,
        func,
        module_returns: dict[str, object] | None = None,
    ) -> None:
        self.func = func
        self.module_returns = module_returns or {}
        self.kinds: dict[int, object] = {}
        self._seed = self._seed_env()
        #: per enclosing loop: the environments its ``break``s and
        #: ``continue``s leave with
        self._loops: list[tuple[list[dict], list[dict]]] = []

    # ------------------------------------------------------------------
    def _seed_env(self) -> dict[str, object]:
        env: dict[str, object] = {}
        args = getattr(self.func, "args", None)
        if args is None:
            return env
        every = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        )
        for arg in every:
            kind = annotation_kind(arg.annotation)
            if kind == OTHER and any(
                frag in arg.arg.lower() for frag in _CONFIG_FRAGMENTS
            ):
                kind = CONFIG
            env[arg.arg] = kind
        return env

    def run(self) -> "KindAnalysis":
        self._body(self.func.body, dict(self._seed))
        return self

    def _body(self, body: list[ast.stmt], env: dict | None) -> dict | None:
        """Transfer ``body`` in source order; the environment after it,
        or ``None`` when every path left it."""
        for stmt in body:
            if env is None:
                env = {}  # dead code after a terminator: still annotated
            env = self._statement(stmt, env)
        return env

    def _statement(self, stmt: ast.stmt, env: dict) -> dict | None:
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, env)
        self._transfer(stmt, env, record=True)  # header-level effects
        if isinstance(stmt, ast.If):
            return _merge(
                self._body(stmt.body, dict(env)),
                self._body(stmt.orelse, dict(env)),
            )
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._body(stmt.body, env)
        if isinstance(stmt, ast.Try):
            done = self._body(stmt.body + stmt.orelse, dict(env))
            # a handler may run before any body statement completed or
            # after all did (mid-body states are not modeled)
            raised = _merge(env, done)
            arms = [done]
            for handler in stmt.handlers:
                entry = dict(raised)
                self._transfer(handler, entry, record=True)
                arms.append(self._body(handler.body, entry))
            after = _merge(*arms)
            if stmt.finalbody:
                return self._body(
                    stmt.finalbody, env if after is None else after
                )
            return after
        if isinstance(stmt, ast.Match):
            arms = [self._body(case.body, dict(env)) for case in stmt.cases]
            if not any(_is_wildcard(case) for case in stmt.cases):
                arms.append(env)  # no case matched
            return _merge(*arms)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loops:
                breaks, continues = self._loops[-1]
                exits = continues if isinstance(stmt, ast.Continue) else breaks
                exits.append(env)
            return None
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return None
        return env

    def _loop(self, stmt, env: dict) -> dict | None:
        """Two passes over the body, each joined with ``env``."""
        entry = env
        for _ in range(2):
            head = dict(entry)
            # the header re-runs per iteration: a while test, or a
            # for-target rebind
            self._transfer(stmt, head, record=True)
            self._loops.append(([], []))
            end = self._body(stmt.body, head)
            breaks, continues = self._loops.pop()
            entry = _merge(env, end, *continues)
        exit_env = dict(entry)
        self._transfer(stmt, exit_env, record=True)
        return _merge(self._body(stmt.orelse, exit_env), *breaks)

    def kind_of(self, node: ast.AST) -> str:
        kind = self.kinds.get(id(node), OTHER)
        if isinstance(kind, tuple):
            return _taint(list(kind[1]))
        return kind

    # ------------------------------------------------------------------
    def _transfer(
        self, stmt: ast.stmt, env: dict[str, object], record: bool
    ) -> None:
        for expr in header_exprs(stmt):
            self._infer(expr, env, record)
        if isinstance(stmt, ast.Assign):
            kind = self._infer(stmt.value, env, record)
            for target in stmt.targets:
                self._bind(target, kind, env)
        elif isinstance(stmt, ast.AugAssign):
            value = self._infer(stmt.value, env, record)
            if isinstance(stmt.target, ast.Name):
                current = env.get(stmt.target.id, OTHER)
                env[stmt.target.id] = promote(
                    _scalarize(current), _scalarize(value)
                )
        elif isinstance(stmt, ast.AnnAssign):
            kind: object
            if stmt.value is not None:
                kind = self._infer(stmt.value, env, record)
            else:
                kind = annotation_kind(stmt.annotation)
            self._bind(stmt.target, kind, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, OTHER, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, OTHER, env)
        else:
            for name in bound_names(stmt):
                env[name] = OTHER

    def _bind(
        self, target: ast.expr, kind: object, env: dict[str, object]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = kind
        elif isinstance(target, ast.Attribute):
            path = dotted_name(target)
            if path is not None:
                env[path] = kind
        elif isinstance(target, (ast.Tuple, ast.List)):
            if (
                isinstance(kind, tuple)
                and kind[0] == "tuple"
                and len(kind[1]) == len(target.elts)
            ):
                for element, element_kind in zip(target.elts, kind[1]):
                    self._bind(element, element_kind, env)
            else:
                for element in target.elts:
                    self._bind(element, OTHER, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, OTHER, env)
        # subscript stores (x[i] = v) do not change x's kind

    # -- expression inference ------------------------------------------
    def _infer(
        self, node: ast.expr, env: dict[str, object], record: bool
    ) -> object:
        kind = self._infer_inner(node, env, record)
        if record:
            self.kinds[id(node)] = kind
        return kind

    def _infer_inner(
        self, node: ast.expr, env: dict[str, object], record: bool
    ) -> object:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or isinstance(
                node.value, (int, float)
            ):
                return SCALAR
            return OTHER
        if isinstance(node, ast.Name):
            return env.get(node.id, OTHER)
        if isinstance(node, ast.Attribute):
            self._infer(node.value, env, record)
            return self._attribute_kind(node, env)
        if isinstance(node, ast.Await):
            return self._infer(node.value, env, record)
        if isinstance(node, ast.Starred):
            return self._infer(node.value, env, record)
        if isinstance(node, ast.NamedExpr):
            kind = self._infer(node.value, env, record)
            self._bind(node.target, kind, env)
            return kind
        if isinstance(node, ast.UnaryOp):
            return _scalarize(self._infer(node.operand, env, record))
        if isinstance(node, ast.BinOp):
            left = self._infer(node.left, env, record)
            right = self._infer(node.right, env, record)
            return promote(_scalarize(left), _scalarize(right))
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._infer(child, env, record)
            return SCALAR
        if isinstance(node, ast.IfExp):
            self._infer(node.test, env, record)
            left = self._infer(node.body, env, record)
            right = self._infer(node.orelse, env, record)
            return join(_scalarize(left), _scalarize(right)) if not (
                isinstance(left, str)
                and isinstance(right, str)
                and left == right
            ) else left
        if isinstance(node, ast.Subscript):
            value = self._infer(node.value, env, record)
            if isinstance(node.slice, ast.expr):
                self._infer(node.slice, env, record)
            if (
                isinstance(value, tuple)
                and value[0] == "tuple"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, int)
                and 0 <= node.slice.value < len(value[1])
            ):
                return value[1][node.slice.value]
            if isinstance(value, str) and value in ARRAY_KINDS:
                return value  # slicing keeps the array kind
            if isinstance(value, tuple):
                return _taint(list(value[1]))
            return OTHER
        if isinstance(node, ast.Tuple):
            kinds = [self._infer(e, env, record) for e in node.elts]
            return ("tuple", kinds)
        if isinstance(node, (ast.List, ast.Set)):
            kinds = [self._infer(e, env, record) for e in node.elts]
            return _taint(kinds)
        if isinstance(node, ast.Dict):
            kinds = []
            for key, value in zip(node.keys, node.values):
                if key is not None:
                    self._infer(key, env, record)
                kinds.append(self._infer(value, env, record))
            return _taint(kinds)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return OTHER  # comprehension scope: not tracked
        if isinstance(node, ast.Call):
            return self._call_kind(node, env, record)
        if isinstance(node, ast.Lambda):
            return OTHER
        if isinstance(node, ast.JoinedStr):
            return OTHER
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._infer(child, env, record)
        return OTHER

    def _attribute_kind(
        self, node: ast.Attribute, env: dict[str, object]
    ) -> object:
        path = dotted_name(node)
        if path is not None:
            if path in ("np.float32", "numpy.float32"):
                return DTYPE32
            if path in ("np.float64", "numpy.float64"):
                return DTYPE64
            if path in env:
                return env[path]
        attr = node.attr
        # the repo's precision naming convention: psi32/dense64_t/...
        # (integer dtypes are not float promotion sources: excluded)
        base = attr[:-2] if attr.endswith("_t") else attr
        if "int" not in base:
            if base.endswith("32") and not base.endswith("float32"):
                return F32
            if base.endswith("64") and not base.endswith("float64"):
                return F64
        if any(frag in attr.lower() for frag in _CONFIG_FRAGMENTS):
            return CONFIG
        if attr == "T":
            base = self.kinds.get(id(node.value), OTHER)
            if isinstance(base, str) and base in ARRAY_KINDS:
                return base
        return OTHER

    def _dtype_kind(
        self, node: ast.expr | None, env: dict[str, object]
    ) -> str | None:
        """``float32``/``float64`` for a dtype-position expression, or
        ``None`` when the dtype cannot be pinned."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in ("float32", "f4"):
                return F32
            if node.value in ("float64", "f8", "double"):
                return F64
            return None
        if isinstance(node, ast.Name):
            held = env.get(node.id)
            if held == DTYPE32:
                return F32
            if held == DTYPE64:
                return F64
            return None
        if isinstance(node, ast.Attribute):
            path = dotted_name(node)
            if path in ("np.float32", "numpy.float32"):
                return F32
            if path in ("np.float64", "numpy.float64"):
                return F64
            if node.attr == "dtype":
                receiver = self.kinds.get(id(node.value))
                if receiver is None:
                    receiver = self._infer(node.value, env, False)
                if receiver in (F32, F64):
                    return receiver
                return None
            if path is not None and env.get(path) in (DTYPE32, DTYPE64):
                return F32 if env[path] == DTYPE32 else F64
        if isinstance(node, ast.IfExp):
            left = self._dtype_kind(node.body, env)
            right = self._dtype_kind(node.orelse, env)
            return left if left == right else None
        return None

    def _call_kind(
        self, node: ast.Call, env: dict[str, object], record: bool
    ) -> object:
        arg_kinds = [self._infer(arg, env, record) for arg in node.args]
        kw_kinds: dict[str, object] = {}
        for keyword in node.keywords:
            kw_kinds[keyword.arg or "**"] = self._infer(
                keyword.value, env, record
            )
        name = dotted_name(node.func)
        tail = name.split(".")[-1] if name else None
        root = name.split(".")[0] if name else None

        # method calls on tracked receivers
        if isinstance(node.func, ast.Attribute):
            receiver = self.kinds.get(id(node.func.value))
            if receiver is None:
                receiver = self._infer(node.func.value, env, False)
            if tail == "astype":
                dtype_expr = node.args[0] if node.args else None
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        dtype_expr = keyword.value
                cast = self._dtype_kind(dtype_expr, env)
                if cast is not None:
                    return cast
                return NDARRAY
            if tail == "copy" and isinstance(receiver, str):
                if receiver in ARRAY_KINDS:
                    return receiver
            if tail == "to_bytes":
                return OTHER
            if tail in ("reshape", "ravel", "view", "transpose", "clip"):
                if isinstance(receiver, str) and receiver in ARRAY_KINDS:
                    return receiver
            if tail in ("append", "extend", "insert", "add") and isinstance(
                node.func.value, ast.Name
            ):
                # container mutation taints the container variable the
                # same way a display would (how a task list built in a
                # loop carries its dict payloads' kinds)
                added = _taint(list(arg_kinds))
                if added in BOUNDARY_KINDS:
                    current = env.get(node.func.value.id, OTHER)
                    if not (
                        isinstance(current, str)
                        and current in BOUNDARY_KINDS
                    ):
                        env[node.func.value.id] = added
                return OTHER

        if root in _NUMPY_ROOTS and tail is not None:
            out = kw_kinds.get("out")
            dtype_expr = dtype_arg(node, tail)
            dtype = self._dtype_kind(dtype_expr, env)
            if tail in ALLOC_DEFAULT_F64:
                if dtype is not None:
                    return dtype
                if dtype_expr is not None:
                    return NDARRAY
                return F64  # numpy's default dtype
            if tail in ALLOC_LIKE:
                if dtype is not None:
                    return dtype
                if dtype_expr is not None:
                    return NDARRAY
                if arg_kinds and isinstance(arg_kinds[0], str):
                    if arg_kinds[0] in ARRAY_KINDS:
                        return arg_kinds[0]
                return NDARRAY
            if tail in PRESERVE or tail in COMBINE:
                if dtype is not None:
                    return dtype
                if dtype_expr is not None:
                    return NDARRAY
                seed = arg_kinds[0] if arg_kinds else OTHER
                if isinstance(seed, tuple):
                    seed = _taint(list(seed[1]))
                if seed in ARRAY_KINDS:
                    return seed
                if seed == SCALAR and tail == "array":
                    return F64
                return NDARRAY
            if tail in UFUNCS:
                if isinstance(out, str) and out in ARRAY_KINDS:
                    return out
                operands = [
                    _scalarize(k)
                    for k in arg_kinds
                    if isinstance(k, str)
                ]
                result = SCALAR
                for operand in operands:
                    result = promote(result, operand)
                return result if result in ARRAY_KINDS else NDARRAY
            if tail == "float32":
                return F32
            if tail == "float64":
                return F64
            if tail == "dtype":
                inner = self._dtype_kind(
                    node.args[0] if node.args else None, env
                )
                if inner == F32:
                    return DTYPE32
                if inner == F64:
                    return DTYPE64
                return OTHER
            if isinstance(out, str) and out in ARRAY_KINDS:
                return out
            return OTHER

        if tail in OPERATOR_FACTORIES:
            return OPERATOR
        if tail == "asdict":
            return CONFIG
        if tail in self.module_returns:
            return self.module_returns[tail]
        return OTHER


def _scalarize(kind: object) -> str:
    """Collapse container kinds to a plain lattice point for binops."""
    if isinstance(kind, tuple):
        return OTHER
    if kind in (DTYPE32, DTYPE64):
        return OTHER
    return kind  # type: ignore[return-value]


def analyze_functions(tree: ast.Module):
    """Yield ``(func_node, KindAnalysis)`` for every function in a
    module (nested functions analyzed separately, as their own
    contexts)."""
    returns = module_return_kinds(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, KindAnalysis(node, returns).run()
