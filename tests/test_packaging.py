"""The packaging stub: ``pyproject.toml`` says what ``setup.py`` and
the README promise (``pip install -e .`` installs ``repro-ecg``)."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def test_metadata_matches_the_package(project):
    meta = project["project"]
    assert meta["name"] == "repro-ecg"
    assert meta["version"] == repro.__version__
    assert "numpy" in meta["dependencies"]
    where = project["tool"]["setuptools"]["packages"]["find"]["where"]
    assert where == ["src"]
    assert (ROOT / "src" / "repro" / "__init__.py").is_file()


def test_console_script_resolves_to_a_callable(project):
    target = project["project"]["scripts"]["repro-ecg"]
    module_name, _, attribute = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attribute)
    assert callable(entry)
    assert entry(["records"]) == 0
