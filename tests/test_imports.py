"""Tooling: no module of the package or of its tests imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

import halfwave

_PACKAGE = Path(halfwave.__file__).parent
_MODULES = sorted(_PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


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
