"""``docs/architecture.md`` and the docstrings describe the system as
it is.

The history of how each part got there lives in ``CHANGES.md``; the
architecture document cites no pull request or issue number, every
cross-reference in a ``src/repro`` docstring resolves, and every test
the docs cite exists.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARCHITECTURE = ROOT / "docs" / "architecture.md"


def test_architecture_cites_no_pr_or_issue():
    text = ARCHITECTURE.read_text(encoding="utf-8")
    cited = [
        f"line {number}: {match.group(0)}"
        for number, line in enumerate(text.splitlines(), 1)
        for match in re.finditer(r"\b(?:PR|ISSUE)s? ?#?\d+", line)
    ]
    assert not cited, f"history belongs in CHANGES.md: {cited}"


def _metric_rows() -> dict[str, tuple[str, set[str]]]:
    """§7's metric table: ``name -> (kind, label names)``, one family
    per row (a row naming two families fails here)."""
    lines = ARCHITECTURE.read_text(encoding="utf-8").splitlines()
    start = lines.index("| metric | kind | labels | meaning |") + 2
    rows: dict[str, tuple[str, set[str]]] = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name_cell, kind, labels_cell = (
            cell.strip() for cell in line.split(" | ")[:3]
        )
        (name,) = re.fullmatch(r"\| `(\w+)`", name_cell).groups()
        assert name not in rows, f"{name} has two rows"
        labels = {
            re.match(r"`(\w+)`", piece).group(1)
            for piece in labels_cell.split(", ")
            if piece != "—"
        }
        rows[name] = (kind, labels)
    return rows


def test_metric_table_matches_the_catalog():
    """Every declared family has one row with its kind and labels, and
    every row is a declared family."""
    from repro.telemetry.catalog import CATALOG

    rows = _metric_rows()
    assert set(rows) == set(CATALOG)
    for name, spec in CATALOG.items():
        assert rows[name] == (spec.kind, set(spec.labels)), name


# ----------------------------------------------------------------------
# docstring cross-references
# ----------------------------------------------------------------------
SRC = ROOT / "src"
ROLE = re.compile(r":(?:class|func|meth|attr|data|mod|exc):`([^`]+)`")


def _self_attributes(cls: type) -> set[str]:
    """Names a class (or a base) assigns as ``self.name`` or declares as
    a field: a ``:attr:`` may name an instance attribute."""
    names: set[str] = set()
    for klass in cls.__mro__:
        names.update(getattr(klass, "__annotations__", {}))
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        except (OSError, TypeError):
            continue
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )
    return names


def _walk(obj, dotted: str) -> bool:
    """Whether ``dotted`` names an attribute chain below ``obj``."""
    *path, last = dotted.split(".")
    for name in path:
        obj = getattr(obj, name, None)
        if obj is None:
            return False
    if hasattr(obj, last):
        return True
    return isinstance(obj, type) and last in _self_attributes(obj)


def _absolute(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain below
    the longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return cut == len(parts) or _walk(module, ".".join(parts[cut:]))
    return False


def _resolves(target: str, module, cls) -> bool:
    """The lookup order: the enclosing class, the module, its package,
    ``repro.``-prefixed, the name as written (if dotted, or ``repro``
    itself: importing another bare name could run a stray module), then
    builtins."""
    package = (
        module.__name__
        if hasattr(module, "__path__")
        else module.__name__.rpartition(".")[0]
    )
    return (
        (cls is not None and _walk(cls, target))
        or _walk(module, target)
        or _absolute(f"{package}.{target}")
        or _absolute(f"repro.{target}")
        or (("." in target or target == "repro") and _absolute(target))
        or _walk(builtins, target)
    )


def _docstring_targets():
    """``(where, target, module, enclosing class)`` for every role in
    every ``src/repro`` docstring."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__main__.py":  # importing it runs the linter
            continue
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        pending = [(ast.parse(path.read_text(encoding="utf-8")), None)]
        while pending:
            node, cls = pending.pop()
            for target in ROLE.findall(ast.get_docstring(node) or ""):
                line = getattr(node, "lineno", 1)
                yield f"{path.relative_to(SRC)}:{line}", target, module, cls
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    owner = cls if cls is not None else module
                    pending.append((child, getattr(owner, child.name, None)))
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    pending.append((child, cls))


def test_docstring_cross_references_resolve():
    """Every ``:class:``/``:func:``/``:meth:``/``:attr:``/``:data:``/
    ``:mod:``/``:exc:`` target in a ``src/repro`` docstring names
    something that exists."""
    stale = []
    for where, text, module, cls in _docstring_targets():
        target = text.rpartition("<")[2].rstrip(">").lstrip("~!.")
        target = target.removesuffix("()")
        if not _resolves(target, module, cls):
            stale.append(f"{where}: {text}")
    assert not stale, f"docstrings name what does not exist: {stale}"


# ----------------------------------------------------------------------
# citations of tests in the docs
# ----------------------------------------------------------------------
CITING = (ARCHITECTURE, ROOT / "README.md")


def _defined(path: Path) -> set[str]:
    """Every class and function name a source file defines."""
    return {
        node.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
    }


def test_doc_citations_name_real_tests():
    """Every ``tests/…py`` path (with any ``::`` node after it) and every
    backticked ``test_*`` name the architecture document or the README
    cites exists."""
    functions = {
        name
        for pattern in ("tests/**/*.py", "benchmarks/**/*.py")
        for path in ROOT.glob(pattern)
        for name in _defined(path)
        if name.startswith("test_")
    }
    missing = []
    for doc in CITING:
        text = doc.read_text(encoding="utf-8")
        cited = re.findall(r"(tests/[\w/]+\.py)((?:::\w+)*)", text)
        for path, nodes in cited:
            source = ROOT / path
            if not source.is_file():
                missing.append(f"{doc.name}: {path}")
                continue
            defined = _defined(source)
            missing.extend(
                f"{doc.name}: {path}{nodes}"
                for name in nodes.split("::")[1:]
                if name not in defined
            )
        missing.extend(
            f"{doc.name}: {name}"
            for name in re.findall(r"`(test_\w+)`", text)
            if name not in functions
        )
    assert not missing, f"the docs cite tests that do not exist: {missing}"
