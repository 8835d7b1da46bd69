"""Legacy setuptools shim.

All metadata lives in ``pyproject.toml`` (name, version, the ``src/``
layout, dependencies and the ``repro-ecg`` console script).  This file
only keeps ``pip install -e .`` working where the ``wheel`` package is
missing and PEP 660 editable installs cannot build: pip then falls back
to the classic ``setup.py develop`` entry point.
"""

from setuptools import setup

setup()
