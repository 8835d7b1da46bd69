"""Unit tests for the dataflow tier's engine: the syntax-directed
pass, its statement views, and the value-kind lattice/transfer
functions.

The rule-level behavior (RL007-RL010) is covered by the fixture tests
in ``test_lint_rules.py``; this file pins the engine semantics those
rules stand on — join points, loop back-edges, exception edges, and
the lattice algebra — so a rule regression can be localized."""

import ast

import pytest

from repro.analysis.dataflow import (
    CONFIG,
    F32,
    F64,
    NDARRAY,
    OPERATOR,
    OTHER,
    SCALAR,
    KindAnalysis,
    analyze_functions,
    annotation_kind,
    bound_names,
    header_exprs,
    join,
    module_return_kinds,
    promote,
)


def first_function(source: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    raise AssertionError("no function in source")


def kinds_of(source: str, marker: str = "use") -> dict[str, str]:
    """Kinds at the function's ``use(...)`` call (or another marker
    call), by arg name."""
    func = first_function(source)
    analysis = KindAnalysis(func).run()
    use = next(
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == marker
    )
    out: dict[str, str] = {}
    for arg in use.args:
        assert isinstance(arg, ast.Name)
        kind = analysis.kind_of(arg)
        assert isinstance(kind, str)
        out[arg.id] = kind
    return out


class TestSyntaxDirectedPass:
    def test_returning_arm_does_not_reach_the_join(self):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(c):\n"
            "    x = np.zeros(4, dtype=np.float32)\n"
            "    if c:\n"
            "        x = np.zeros(4)\n"
            "        return x\n"
            "    use(x)\n"
        )
        assert kinds["x"] == F32

    def test_loop_back_edge_carries_kind(self):
        # the second pass starts from the join of the state before the
        # loop and the first pass's end
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(n):\n"
            "    y = np.zeros(4, dtype=np.float32)\n"
            "    for i in range(n):\n"
            "        use(y)\n"
            "        y = np.zeros(4)\n"
        )
        assert kinds["y"] == NDARRAY

    def test_break_ends_its_path_and_joins_loop_exit(self):
        source = (
            "import numpy as np\n"
            "def f(items):\n"
            "    x = np.zeros(4, dtype=np.float32)\n"
            "    for item in items:\n"
            "        x = np.zeros(4, dtype=np.float32)\n"
            "        if item:\n"
            "            x = np.zeros(4)\n"
            "            break\n"
            "        inside(x)\n"
            "    use(x)\n"
        )
        assert kinds_of(source, "inside")["x"] == F32
        assert kinds_of(source)["x"] == NDARRAY

    def test_continue_ends_its_path_and_joins_back_edge(self):
        source = (
            "import numpy as np\n"
            "def f(items):\n"
            "    y = np.zeros(4, dtype=np.float32)\n"
            "    while items:\n"
            "        use(y)\n"
            "        y = np.zeros(4, dtype=np.float32)\n"
            "        if items.pop():\n"
            "            y = np.zeros(4)\n"
            "            continue\n"
            "        inside(y)\n"
        )
        assert kinds_of(source, "inside")["y"] == F32
        assert kinds_of(source)["y"] == NDARRAY

    def test_handler_sees_states_before_and_after_the_body(self):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f():\n"
            "    x = np.zeros(4, dtype=np.float32)\n"
            "    try:\n"
            "        x = np.zeros(4)\n"
            "    except ValueError:\n"
            "        use(x)\n"
        )
        assert kinds["x"] == NDARRAY

    @pytest.mark.parametrize(
        "last_case, expected", [("_", F64), ("2", NDARRAY)]
    )
    def test_match_falls_through_without_a_wildcard(
        self, last_case, expected
    ):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(k):\n"
            "    x = np.zeros(4, dtype=np.float32)\n"
            "    match k:\n"
            "        case 1:\n"
            "            x = np.zeros(4)\n"
            f"        case {last_case}:\n"
            "            x = np.zeros(4)\n"
            "    use(x)\n"
        )
        assert kinds["x"] == expected


class TestStatementViews:
    def test_header_exprs_surface_tests_not_bodies(self):
        stmt = ast.parse("if a > b:\n    c = 1\n").body[0]
        exprs = header_exprs(stmt)
        assert len(exprs) == 1
        assert isinstance(exprs[0], ast.Compare)

    @pytest.mark.parametrize(
        "source, names",
        [
            ("x = 1", {"x"}),
            ("x, y = pair", {"x", "y"}),
            ("for i in items:\n    pass", {"i"}),
            ("with open(p) as fh:\n    pass", {"fh"}),
            ("import numpy as np", {"np"}),
        ],
    )
    def test_bound_names(self, source, names):
        stmt = ast.parse(source).body[0]
        assert set(bound_names(stmt)) == names


class TestLattice:
    def test_join_identity_and_mix(self):
        assert join(F32, F32) == F32
        assert join(F32, F64) == NDARRAY  # some array, precision unknown
        assert join(SCALAR, SCALAR) == SCALAR

    def test_dangerous_kinds_survive_join_with_other(self):
        # may-analysis: "possibly an ndarray" must stay visible through
        # a zero-iteration loop join
        for kind in (F32, F64, NDARRAY, OPERATOR, CONFIG):
            assert join(kind, OTHER) == kind
            assert join(OTHER, kind) == kind
        assert join(SCALAR, OTHER) == OTHER

    def test_tuple_shapes_join(self):
        # a cached ``(P, R)`` pair is a tuple on the build path and
        # ``other`` (``cache.get``) on the hit path: the join used to
        # hash the shape's element list and raise
        pair = ("tuple", [F32, F64])
        assert join(pair, ("tuple", [F32, F32])) == ("tuple", [F32, NDARRAY])
        assert join(pair, OTHER) == F64  # worst element survives
        assert join(OTHER, pair) == F64
        assert join(pair, ("tuple", [F32])) == NDARRAY
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(cache, key, n):\n"
            "    value = cache.get(key)\n"
            "    if value is None:\n"
            "        value = (np.zeros(n, dtype=np.float32), np.zeros(n))\n"
            "    use(value)\n"
        )
        assert kinds["value"] == F64

    def test_promote_models_numpy(self):
        assert promote(F32, F64) == F64
        assert promote(F32, SCALAR) == F32  # weak python scalar
        # f64 with an unknown-precision array is f64 either way
        assert promote(F64, NDARRAY) == F64

    @pytest.mark.parametrize(
        "annotation, expected",
        [
            ("np.ndarray", NDARRAY),
            ("float", SCALAR),
            ("MonitorConfig", CONFIG),
            ("StructuredOperator", OPERATOR),
            ("np.ndarray | None", NDARRAY),
            # a mapping is tainted by its values (a solve task dict)
            ("dict[str, np.ndarray | dict | str | float]", NDARRAY),
            ("dict[str, int]", SCALAR),
        ],
    )
    def test_annotation_kinds(self, annotation, expected):
        node = ast.parse(annotation, mode="eval").body
        assert annotation_kind(node) == expected


class TestKindAnalysis:
    def test_dtype_tracking_through_assignments(self):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(x):\n"
            "    a = np.zeros((4,), dtype=np.float32)\n"
            "    b = np.zeros((4,))\n"
            "    c = a.astype(np.float64)\n"
            "    d = np.asarray(x, dtype='float32')\n"
            "    use(a, b, c, d)\n"
        )
        assert kinds["a"] == F32
        assert kinds["b"] == F64  # numpy's default dtype
        assert kinds["c"] == F64
        assert kinds["d"] == F32

    def test_branch_join_widens_precision(self):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(c):\n"
            "    if c:\n"
            "        x = np.zeros(4, dtype=np.float32)\n"
            "    else:\n"
            "        x = np.zeros(4, dtype=np.float64)\n"
            "    use(x)\n"
        )
        assert kinds["x"] == NDARRAY

    def test_loop_zero_iteration_join_keeps_taint(self):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(items):\n"
            "    tasks = []\n"
            "    for item in items:\n"
            "        tasks.append(np.zeros((4, 4)))\n"
            "    use(tasks)\n"
        )
        assert kinds["tasks"] == F64

    def test_binop_promotion_recorded(self):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(x):\n"
            "    a = np.asarray(x, dtype=np.float32)\n"
            "    b = a * np.float64(2.0)\n"
            "    use(b)\n"
        )
        assert kinds["b"] == F64

    def test_attribute_suffix_heuristic(self):
        kinds = kinds_of(
            "def f(structure):\n"
            "    a = structure.psi32\n"
            "    b = structure.dense64\n"
            "    c = structure.dense64_t\n"
            "    d = structure.int64\n"
            "    use(a, b, c, d)\n"
        )
        assert kinds["a"] == F32
        assert kinds["b"] == F64
        assert kinds["c"] == F64  # transpose suffix stripped
        assert kinds["d"] == OTHER  # integer arrays are not float kinds

    def test_param_annotations_seed_env(self):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(block: np.ndarray, config: MonitorConfig, seed):\n"
            "    use(block, config, seed)\n"
        )
        assert kinds["block"] == NDARRAY
        assert kinds["config"] == CONFIG
        assert kinds["seed"] == CONFIG  # name fragment

    def test_tuple_unpack_distributes_kinds(self):
        kinds = kinds_of(
            "import numpy as np\n"
            "def f(x):\n"
            "    a, b = np.zeros(4, dtype=np.float32), np.zeros(4)\n"
            "    use(a, b)\n"
        )
        assert kinds["a"] == F32
        assert kinds["b"] == F64

    def test_module_return_annotations_resolve_calls(self):
        tree = ast.parse(
            "import numpy as np\n"
            "def make() -> np.ndarray: ...\n"
            "def f():\n"
            "    block = make()\n"
            "    use(block)\n"
        )
        returns = module_return_kinds(tree)
        assert returns["make"] == NDARRAY
        func = tree.body[2]
        analysis = KindAnalysis(func, returns).run()
        name = next(
            n
            for n in ast.walk(func)
            if isinstance(n, ast.Name) and n.id == "block"
            and isinstance(n.ctx, ast.Load)
        )
        assert analysis.kind_of(name) == NDARRAY

    def test_analyze_functions_yields_every_def(self):
        tree = ast.parse(
            "def a(): ...\n"
            "class C:\n"
            "    def b(self): ...\n"
            "async def c(): ...\n"
        )
        names = {func.name for func, _ in analyze_functions(tree)}
        assert names == {"a", "b", "c"}
