"""Packaging tests: what pyproject.toml and the package docstring promise
exists, and nothing public exists that only the tests call."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import shiftconv

ROOT = Path(__file__).resolve().parent.parent


def _pyproject() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_console_scripts_resolve():
    for target in _pyproject()["project"].get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_version_is_the_pyproject_version():
    # the benchmark's provenance reads __version__, pip reads pyproject.toml
    assert shiftconv.__version__ == _pyproject()["project"]["version"]


def test_docstring_submodules_import():
    names = re.findall(r"^    (\w+)\s", shiftconv.__doc__.split("Submodules:", 1)[1], re.M)
    assert names
    for name in names:
        importlib.import_module(f"shiftconv.{name}")


def test_numpy_fft_loads_with_the_package():
    # numpy 2 imports numpy.fft at the first np.fft access; loaded at import,
    # it stays out of the first a(n), Kloosterman row or T call
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, shiftconv.circle; sys.exit('numpy.fft' not in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_dependencies_imported():
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "shiftconv").rglob("*.py"))
    for spec in _pyproject()["project"]["dependencies"]:
        name = re.match(r"[\w.-]+", spec).group(0)
        assert re.search(rf"^\s*(import|from)\s+{re.escape(name)}\b", source, re.M), spec


def test_public_names_have_a_caller_outside_tests():
    # names and attribute names used by the package and the benchmark;
    # a definition alone does not count, nor does any test file.  Checked:
    # module-level functions and classes, and the public methods,
    # properties, classmethods and staticmethods of those classes
    files = [
        f
        for d in (ROOT / "src" / "shiftconv", ROOT / "perfbench")
        for f in d.rglob("*.py")
        if not f.name.startswith("test_")
    ]
    used = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for info in pkgutil.iter_modules(shiftconv.__path__):
        mod = importlib.import_module(f"shiftconv.{info.name}")
        for name, obj in vars(mod).items():
            if (
                name.startswith("_")
                or not (inspect.isfunction(obj) or inspect.isclass(obj))
                or obj.__module__ != mod.__name__
            ):
                continue
            if name not in used:
                unused.append(f"{info.name}.{name}")
            if inspect.isclass(obj):
                unused += [
                    f"{info.name}.{name}.{attr}"
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                    and isinstance(member, (FunctionType, property, classmethod, staticmethod))
                    and attr not in used
                ]
    assert not unused, f"public names with no caller outside tests/: {unused}"


# the modules tests/ and perfbench/ import from their own directories
LOCAL_MODULES = {"shiftconv", "oracles", "tracer", "layers", "workloads", "child", "run"}


def _required_imports(node):
    """Top-level names of the modules imported under node, skipping the body
    of a try that catches ImportError: an optional import may be missing."""
    if isinstance(node, ast.Import):
        yield from (alias.name.split(".")[0] for alias in node.names)
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        yield node.module.split(".")[0]
    optional = isinstance(node, ast.Try) and any(
        isinstance(h.type, ast.Name) and h.type.id in ("ImportError", "ModuleNotFoundError") for h in node.handlers
    )
    for child in ast.iter_child_nodes(node):
        if not (optional and child in node.body):
            yield from _required_imports(child)


def test_imports_are_declared():
    # CI installs only the declared dependencies, so an import of a package
    # that merely happens to be installed here passes locally and fails there
    project = _pyproject()["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", spec).group(0).lower().replace("-", "_") for spec in specs}
    allowed = set(sys.stdlib_module_names) | declared | LOCAL_MODULES
    stray = [
        f"{f.relative_to(ROOT)}: {name}"
        for d in ("src", "tests", "perfbench")
        for f in sorted((ROOT / d).rglob("*.py"))
        for name in _required_imports(ast.parse(f.read_text()))
        if name not in allowed
    ]
    assert not stray, f"imports of undeclared packages: {stray}"
