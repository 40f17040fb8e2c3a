"""Packaging tests: what pyproject.toml and the package docstring promise exists."""

import importlib
import re
from pathlib import Path

import pytest

import shiftconv

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_console_scripts_resolve():
    for target in PYPROJECT["project"].get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_docstring_submodules_import():
    names = re.findall(r"^    (\w+)\s", shiftconv.__doc__.split("Submodules:", 1)[1], re.M)
    assert names
    for name in names:
        importlib.import_module(f"shiftconv.{name}")


def test_dependencies_imported():
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "shiftconv").rglob("*.py"))
    for spec in PYPROJECT["project"]["dependencies"]:
        name = re.match(r"[\w.-]+", spec).group(0)
        assert re.search(rf"^\s*(import|from)\s+{re.escape(name)}\b", source, re.M), spec
