"""Every module under ``src/repro`` is reachable from an entry point.

The entry points are the console script (``repro.cli``), repro-lint
(``python -m repro.analysis``) and every file under ``examples/``,
``benchmarks/`` and ``scripts/``.  The import graph is built statically
from their source.  ``from pkg import name`` is resolved through the
package ``__init__``'s re-exports (including a PEP 562
``_LAZY_EXPORTS`` map) to the module that defines ``name``, so a
package re-exporting a module does not by itself keep it alive: a
module that only the tests import is dead code and fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_MODULES = ("repro.cli", "repro.analysis.__main__")
ENTRY_DIRS = ("examples", "benchmarks", "scripts")

#: module -> why it stays although no entry point imports it yet
TEST_ONLY_ALLOWED = {
    "repro.metrics.diagnostic": "diagnostic-quality checks that ROADMAP "
    "item 5 wires into benchmarks/e2e",
    "repro.ecg.qrs": "the QRS detector behind the diagnostic checks "
    "(ROADMAP item 5)",
}


def _module_files() -> dict[str, Path]:
    files = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _absolute(node: ast.ImportFrom, module: str | None) -> str:
    """The absolute module an ``ImportFrom`` in ``module`` names."""
    if node.level == 0:
        return node.module or ""
    if module is None:  # a relative import in a non-repro entry file
        return ""
    package = module.split(".")
    if not _is_package(module):
        package = package[:-1]
    package = package[: len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _reexports(package: str) -> dict[str, tuple[str, str]]:
    """Public name -> (defining module, name there) of a package."""
    table = {}
    for node in ast.walk(_parse(MODULES[package])):
        if isinstance(node, ast.ImportFrom):
            base = _absolute(node, package)
            for alias in node.names:
                table[alias.asname or alias.name] = (base, alias.name)
        elif (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "_LAZY_EXPORTS"
                for t in node.targets
            )
            and isinstance(node.value, ast.Dict)
        ):
            for key, value in zip(node.value.keys, node.value.values):
                table[key.value] = (f"{package}.{value.value}", key.value)
    return table


def _resolve(module: str, name: str) -> set[str]:
    """The modules ``from module import name`` reaches."""
    if f"{module}.{name}" in MODULES:
        return {f"{module}.{name}"}
    if module not in MODULES:
        return set()
    if not _is_package(module) or name not in _reexports(module):
        return {module}
    return _resolve(*_reexports(module)[name])


def _whole(module: str) -> set[str]:
    """``import module``: a package reaches everything it re-exports."""
    if module not in MODULES:
        return set()
    if not _is_package(module):
        return {module}
    reached = {module}
    for source, name in _reexports(module).values():
        reached |= _resolve(source, name)
    return reached


def _imports(path: Path, module: str | None) -> set[str]:
    reached = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                reached |= _whole(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node, module)
            if base == "repro" or base.startswith("repro."):
                for alias in node.names:
                    reached |= _resolve(base, alias.name)
    return reached


def reachable_modules() -> set[str]:
    frontier = set(ENTRY_MODULES)
    for directory in ENTRY_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            frontier |= _imports(path, None)
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        # importing a module runs its packages' __init__ files
        parts = module.split(".")
        frontier |= {".".join(parts[:i]) for i in range(1, len(parts))}
        if not _is_package(module):  # an __init__'s imports are re-exports
            frontier |= _imports(MODULES[module], module)
    return reached


def test_every_module_is_reachable_from_an_entry_point():
    unreached = set(MODULES) - reachable_modules() - set(TEST_ONLY_ALLOWED)
    assert not unreached, (
        "modules no entry point reaches (only tests import them): "
        f"{sorted(unreached)}"
    )


def test_allowed_exceptions_are_still_unreached():
    # once item 5 wires an exception in, it leaves the list
    assert not set(TEST_ONLY_ALLOWED) & reachable_modules()


class TestResolver:
    """The guard's import resolution on real re-exports of this package."""

    def test_entry_modules_exist(self):
        assert set(ENTRY_MODULES) <= set(MODULES)

    def test_reexport_resolves_to_the_defining_module(self):
        assert _resolve("repro.solvers", "fista") == {"repro.solvers.fista"}

    def test_lazy_export_resolves_to_the_defining_module(self):
        assert _resolve("repro.telemetry", "CATALOG") == {"repro.telemetry.catalog"}

    def test_relative_import_is_made_absolute(self):
        node = ast.parse("from ..errors import SolverError").body[0]
        assert _absolute(node, "repro.solvers.fista") == "repro.errors"
