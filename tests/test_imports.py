"""Tooling: no module of the package or of its tests imports a name that it
never uses, and the package's own imports sit at module level and run one way."""

import ast
import graphlib
from pathlib import Path

import pytest

import halfwave

_PACKAGE = Path(halfwave.__file__).parent
_PACKAGE_MODULES = sorted(_PACKAGE.glob("*.py"))
_MODULES = _PACKAGE_MODULES + sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(source: str, reexports: bool = False) -> list:
    """Names bound by import statements that the module never reads.

    A name is used when the module loads it anywhere or lists it in
    __all__.  With reexports (a package __init__), every import is a use."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    if reexports:
        return []
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.fft\n"
        "from .grid import reflect, Spectrum, SpatialGrid\n"
        "__all__ = ['SpatialGrid']\n"
        "def f(x: Spectrum):\n"
        "    return np.abs(x)\n"
    )
    assert _unused_imports(source) == ["reflect (line 4)", "scipy (line 3)"]
    assert _unused_imports(source, reexports=True) == []


def _module_id(path: Path) -> str:
    return path.name if path.parent == _PACKAGE else f"tests/{path.name}"


@pytest.mark.parametrize("path", _MODULES, ids=_module_id)
def test_no_unused_imports(path):
    reexports = path.parent == _PACKAGE and path.name == "__init__.py"
    assert _unused_imports(path.read_text(), reexports=reexports) == []


def _function_imports(source: str) -> list:
    """Import statements inside a function, as 'function (line n)', naming
    the innermost function."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found[node.lineno] = fn.name
    return [f"{name} (line {line})" for line, name in sorted(found.items())]


def _package_imports(source: str, package: str = "halfwave") -> set:
    """The modules of the package that a module of it imports, by name;
    `from . import x` counts x, which the caller checks is a module."""
    deps = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != package:
                continue
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                deps.add(parts[0])
            else:
                deps |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            deps |= {alias.name.split(".")[1] for alias in node.names
                     if alias.name.startswith(package + ".")}
    return deps


def _cycle(graph: dict) -> list:
    """One cycle of the graph {node: nodes it points to}, [] if it has none."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as e:
        return e.args[1]
    return []


def test_detectors_find_function_imports_and_cycles():
    source = (
        "import numpy as np\n"
        "from . import kernels, solver as s\n"
        "from .grid import Spectrum\n"
        "from halfwave.spaces import xsb_norm\n"
        "import halfwave.errors\n"
        "def f():\n"
        "    from .dyadic import MaskSpec\n"
        "    def g():\n"
        "        import json\n"
        "    return MaskSpec\n"
    )
    assert _function_imports(source) == ["f (line 7)", "g (line 9)"]
    assert _package_imports(source) == {"kernels", "solver", "grid", "spaces", "errors", "dyadic"}
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert sorted(set(_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}))) == ["a", "b", "c"]


@pytest.mark.parametrize("path", _PACKAGE_MODULES, ids=_module_id)
def test_no_function_level_imports(path):
    assert _function_imports(path.read_text()) == []


def test_package_imports_run_one_way():
    """The intra-package import graph has no cycle: the masks' home, bilinear,
    does not reach back into dyadic, and kernels imports no package module."""
    names = {path.stem for path in _PACKAGE_MODULES}
    graph = {path.stem: _package_imports(path.read_text()) & names for path in _PACKAGE_MODULES}
    assert _cycle(graph) == []
    assert "dyadic" not in graph["bilinear"]
    assert graph["kernels"] == set()
