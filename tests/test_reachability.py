"""Every module and def under ``src/repro`` is reachable from an entry point.

The entry points are the console script (``repro.cli``), repro-lint
(``python -m repro.analysis``) and every file under ``examples/``,
``benchmarks/`` and ``scripts/``.  The import graph is built statically
from their source.  ``from pkg import name`` is resolved through the
package ``__init__``'s re-exports (including a PEP 562
``_LAZY_EXPORTS`` map) to the module that defines ``name``, so a
package re-exporting a module does not by itself keep it alive: a
module that only the tests import is dead code and fails here.

Below modules, every function, method, property and class is checked
by name: a def is live when code in ``src/``, ``examples/``,
``benchmarks/`` or ``scripts/`` outside a ``test_*.py`` file names it
(as a bare name or an attribute) outside the def's own body.  Imports,
``__all__`` and ``_LAZY_EXPORTS`` strings are not uses, so a re-export
alone keeps nothing alive.  Matching is by the bare name, so it can
only err towards keeping a def: two defs that share a name keep each
other.
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


#: decorator -> why every def it decorates is live although none is named
ROOT_DECORATORS = {
    "register": "repro-lint runs every rule class its registry holds",
}

#: ``module.qualname`` -> why the def stays although only tests name it
DEF_EXCEPTIONS = {
    # reference implementations the tests hold the table-driven hot
    # paths to, bit for bit
    "repro.coding.huffman.HuffmanCode.decode_symbol": "bit-serial tree "
    "walk the table-driven Huffman decoder is compared against",
    "repro.coding.huffman.huffman_code_lengths": "unconstrained Huffman "
    "optimum the length-limited package-merge code is compared against",
    # the paper's fig-8 display-thread model
    "repro.platforms.iphone.IPhoneModel.display_pixel_rate_hz": "the "
    "paper's display thread draws about one pixel per ECG sample",
    "repro.platforms.iphone.IPhoneModel.buffer_requirement_s": "the "
    "paper's 6 s shared buffer (2 s read + 2 s write + 2 s display)",
    # readers ROADMAP items 5 and 12 name
    "repro.ecg.records.Record.beat_samples": "annotated beat positions "
    "the diagnostic checks of ROADMAP item 5 read",
    "repro.coding.codebook.empirical_entropy_bits": "the entropy floor "
    "ROADMAP item 12 compares the coded stream against",
    # what the e2e smoke test, under benchmarks/, reaches
    "repro.ingest.gateway.IngestGateway.connect_local": "the socket-free "
    "link the gateway, hostile-wire and e2e smoke tests run on",
    "repro.ingest.client.encoded_packets": "the offline packet reference "
    "the e2e smoke and the gateway tests compare the wire against",
}


def _defs(tree: ast.Module, module: str) -> dict[str, ast.AST]:
    """``module.qualname`` -> node of every module- and class-level def
    (functions nested in functions belong to their enclosing def)."""
    found = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                found[f"{prefix}.{child.name}"] = child
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")

    visit(tree, module)
    return found


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def unreached_defs(
    modules: dict[str, ast.Module], naming: list[ast.Module]
) -> set[str]:
    """Defs of ``modules`` that no tree in ``naming`` names outside the
    def's own body (``modules`` are among the naming trees)."""
    uses: dict[str, list[ast.AST]] = {}
    for tree in naming:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    unreached = set()
    for module, tree in modules.items():
        for qualname, node in _defs(tree, module).items():
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # the data model calls it
            if any(
                _decorator_name(d) in ROOT_DECORATORS
                for d in node.decorator_list
            ):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(id(use) in inside for use in uses.get(node.name, ())):
                unreached.add(qualname)
    return unreached


def unreached_source_defs() -> set[str]:
    modules = {name: _parse(path) for name, path in MODULES.items()}
    naming = list(modules.values())
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if not path.name.startswith("test_"):  # benchmarks/e2e's smoke
                naming.append(_parse(path))
    return unreached_defs(modules, naming)


def _in_allowed_module(qualname: str) -> bool:
    return any(qualname.startswith(f"{m}.") for m in TEST_ONLY_ALLOWED)


def test_every_module_is_reachable_from_an_entry_point():
    unreached = set(MODULES) - reachable_modules() - set(TEST_ONLY_ALLOWED)
    assert not unreached, (
        "modules no entry point reaches (only tests import them): "
        f"{sorted(unreached)}"
    )


def test_allowed_exceptions_are_still_unreached():
    # once item 5 wires an exception in, it leaves the list
    assert not set(TEST_ONLY_ALLOWED) & reachable_modules()


def test_every_def_is_named_outside_the_tests():
    unreached = {
        name
        for name in unreached_source_defs() - set(DEF_EXCEPTIONS)
        if not _in_allowed_module(name)
    }
    assert not unreached, (
        "defs that only tests name (delete them, or name the reason in "
        f"DEF_EXCEPTIONS): {sorted(unreached)}"
    )


def test_def_exceptions_are_still_unreached():
    # an exception that gains a caller, or whose def is gone, leaves the list
    assert set(DEF_EXCEPTIONS) <= unreached_source_defs()


class TestDefScan:
    """The def-level scan on small synthetic trees."""

    @staticmethod
    def _scan(source: str, *naming: str) -> set[str]:
        tree = ast.parse(source)
        return unreached_defs(
            {"m": tree}, [tree, *(ast.parse(s) for s in naming)]
        )

    def test_orphan_function_and_method_are_flagged(self):
        source = (
            "def used(): return 1\n"
            "def orphan(): return used()\n"
            "class C:\n"
            "    def kept(self): return 2\n"
            "    def dropped(self): return self.kept()\n"
        )
        assert self._scan(source, "m.C().dropped") == {"m.orphan"}

    def test_a_def_naming_itself_stays_unreached(self):
        source = "def fact(n): return 1 if n < 2 else n * fact(n - 1)\n"
        assert self._scan(source) == {"m.fact"}

    def test_import_and_all_strings_are_not_uses(self):
        source = "def f(): pass\n__all__ = ['f']\n"
        assert self._scan(source, "from m import f") == {"m.f"}

    def test_dunders_and_registered_classes_are_roots(self):
        source = (
            "@register\n"
            "class Rule:\n"
            "    def __repr__(self): return 'r'\n"
        )
        assert self._scan(source) == set()


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
