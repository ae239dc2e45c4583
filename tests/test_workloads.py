"""The benchmark's operations in perfbench/workloads.py call the package by
name and keyword; a renamed function or parameter must fail here, not only
when the benchmark runs.  Nothing under perfbench/ is written."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import halfwave as hw

_DIR = Path(__file__).resolve().parents[1] / "perfbench"
_PATH = _DIR / "workloads.py"

# functions that forward **kwargs, and the function that receives them
_FORWARDS = {"shell_surface_mass": "surface_mass"}


def _workloads():
    spec = importlib.util.spec_from_file_location("_workloads", _PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod       # dataclasses look their module up by name
    sys.path.insert(0, str(_DIR))      # workloads imports reference from its own directory
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(_DIR))
        del sys.modules[spec.name]
        sys.modules.pop("reference", None)
    return mod


def _hw_uses():
    """(name, keywords, line) of every hw.<name> in the workloads; keywords
    is None where the name is not called."""
    tree = ast.parse(_PATH.read_text())
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called[id(node.func)] = [kw.arg for kw in node.keywords if kw.arg is not None]
    return [(node.attr, called.get(id(node)), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "hw"]


def test_workload_names_and_keywords_exist():
    uses = _hw_uses()
    assert {name for name, _, _ in uses} >= {"surface_mass", "check_hyperbolic_lemmas"}
    for name, keywords, line in uses:
        assert hasattr(hw, name), f"workloads.py:{line}: hw.{name} does not exist"
        if not keywords:
            continue
        params = inspect.signature(getattr(hw, name)).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            assert name in _FORWARDS, f"workloads.py:{line}: hw.{name} forwards **kwargs"
            params = {**params, **inspect.signature(getattr(hw, _FORWARDS[name])).parameters}
        for kw in keywords:
            assert kw in params, f"workloads.py:{line}: hw.{name} takes no {kw}="


def _seed0_ops():
    wl = _workloads()
    (surface,) = wl.build_rounds("surface", 0, 1)
    (estimates,) = wl.build_rounds("estimates", 0, 1)
    picked = [op for op in estimates if op.kind in ("hyperbolic_lemmas", "pq_split")]
    (solve,) = wl.build_rounds("solve", 0, 1)
    # the probe, and the two solves on complex data
    picked += [op for op in solve if op.kind in ("lipschitz_probe", "solve_k1_x1", "solve_k2_t")]
    assert len(picked) == 5
    return surface + picked + [wl.build_warmup("solve", 0)]


@pytest.mark.parametrize("op", _seed0_ops(), ids=lambda op: op.kind)
def test_workload_operation_passes_its_check(op):
    assert op.check(op.run()) == []
