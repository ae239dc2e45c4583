"""The per-layer tracer in perfbench/ wraps functions by name; those names must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_layertrace", _PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod       # dataclasses look their module up by name
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return [(layer, name) for layer, names in mod.TARGETS.items() for name in names]


@pytest.mark.parametrize("layer,name", _targets())
def test_trace_target_exists(layer, name):
    """A missing target would make its per-layer metrics read 0 without an error."""
    home = importlib.import_module(f"halfwave.{layer}")
    assert callable(getattr(home, name, None)), f"halfwave.{layer}.{name}"
