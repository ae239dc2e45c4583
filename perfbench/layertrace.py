"""Spans and counters around the calls into each `halfwave` layer.

The traced run wraps public functions of the layer modules from outside the
program.  A module that imported a name with `from .grid import ...` holds
its own reference, so each function is replaced in every `halfwave` module
namespace that holds it, not only in its home module.  A name that no
longer exists is reported as missing, and the metrics it feeds read 0.

Spans are kept in memory as (name, start, end, parent, operation id) and
written out when the run ends.  The self time of a span is its duration less
the durations of its child spans (calls are sequential, so the children do
not overlap).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

GRID_FUNCS = ("forward_transform", "inverse_transform", "spatial_forward_slices",
              "spatial_inverse_slices", "time_forward")
NORM_FUNCS = ("xsb_norm", "restricted_norm", "z_norm", "sobolev_hat_norm")
CHECK_FUNCS = ("check_key_estimate", "check_hyperbolic_lemmas", "sharpness_probe",
               "extremizer_search")

TARGETS = {
    "grid": GRID_FUNCS,
    "propagator": ("free_spacetime", "duhamel"),
    "spaces": NORM_FUNCS,
    "solver": ("solve_local", "picard_iterate", "rhs_eval", "select_delta",
               "flow_lipschitz_probe"),
    "kernels": ("band_mass", "masked_convolution"),
    "bilinear": ("surface_mass", "product_transform_direct", "bilinear_symbol_product"),
    "dyadic": ("shell_surface_mass",),
    "verify": CHECK_FUNCS,
}

# per-layer metric -> unit; every one is reported on every workload
PER_LAYER = {
    "grid.transform_calls": "count",
    "grid.transform_points": "count",
    "grid.transform_s": "s",
    "propagator.free_spacetime_calls": "count",
    "propagator.free_spacetime_self_s": "s",
    "propagator.duhamel_calls": "count",
    "propagator.duhamel_self_s": "s",
    "spaces.norm_calls": "count",
    "spaces.norm_self_s": "s",
    "solver.solve_local_calls": "count",
    "solver.picard_iterations": "count",
    "solver.picard_iterate_self_s": "s",
    "solver.rhs_eval_calls": "count",
    "solver.rhs_eval_self_s": "s",
    "solver.select_delta_trials": "count",
    "solver.flow_lipschitz_probe_self_s": "s",
    "solver.transforms_per_iteration": "ratio",
    "solver.solves_per_probe_pair": "ratio",
    "kernels.band_mass_calls": "count",
    "kernels.band_mass_cells": "count",
    "kernels.band_mass_s": "s",
    "kernels.masked_convolution_calls": "count",
    "kernels.masked_convolution_pairs": "count",
    "kernels.masked_convolution_s": "s",
    "bilinear.surface_mass_calls": "count",
    "bilinear.surface_mass_self_s": "s",
    "bilinear.band_mass_per_surface_mass": "ratio",
    "bilinear.surface_mass_unconverged": "count",
    "bilinear.product_transform_direct_calls": "count",
    "bilinear.product_transform_direct_self_s": "s",
    "bilinear.bilinear_symbol_product_calls": "count",
    "bilinear.bilinear_symbol_product_self_s": "s",
    "dyadic.shell_surface_mass_calls": "count",
    "verify.check_self_s": "s",
    "verify.extremizer_evaluations": "count",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    work: int = 0           # transform points, band cells or convolution pairs
    result: dict = field(default_factory=dict)


def _array_size(args) -> int:
    """Complex samples in: the first array argument, or the first `.data` array."""
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.size)
        data = getattr(a, "data", None)
        if isinstance(data, np.ndarray):
            return int(data.size)
    return 0


def _band_cells(bound) -> int:
    n = bound.arguments.get("n")
    return int(n) ** 3 if n is not None else 0


def _conv_pairs(bound) -> int:
    us, vs = bound.arguments.get("us"), bound.arguments.get("vs")
    if us is None or vs is None:
        return 0
    su = int(np.count_nonzero(np.abs(us).max(axis=0)))
    sv = int(np.count_nonzero(np.abs(vs).max(axis=0)))
    return su * sv * int(us.shape[0])


def _result_fields(name: str, out) -> dict:
    """The few fields of a return value that the aggregates count."""
    if name == "picard_iterate":
        return {"iterations": int(getattr(out, "iterations", 0))}
    if name == "select_delta" and isinstance(out, tuple) and len(out) == 2:
        return {"trials": len(out[1])}
    if name == "surface_mass":
        empty = bool(getattr(out, "empty", False))
        return {"unconverged": int(not empty and not getattr(out, "converged", True))}
    if name == "flow_lipschitz_probe" and isinstance(out, dict):
        rows = out.get("rows", [])
        return {"pairs": sum(1 for row in rows if row.get("status") != "skipped")}
    if name == "extremizer_search" and isinstance(out, dict):
        return {"evaluations": int(out.get("evaluations", 0))}
    return {}


class Tracer:
    """Installs span-recording wrappers; `uninstall` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        for layer, names in TARGETS.items():
            try:
                home = importlib.import_module(f"halfwave.{layer}")
            except ImportError:
                self.missing += [f"halfwave.{layer}.{n}" for n in names]
                continue
            for name in names:
                orig = getattr(home, name, None)
                if not callable(orig):
                    self.missing.append(f"halfwave.{layer}.{name}")
                    continue
                self._wrap_everywhere(orig, self._wrapper(layer, name, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _wrap_everywhere(self, orig, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "halfwave" or modname.startswith("halfwave.")):
                continue
            for attr, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, orig))

    def _wrapper(self, layer, name, orig):
        full = f"{layer}.{name}"
        try:
            sig = inspect.signature(orig)
        except (TypeError, ValueError):
            sig = None
        spans, stack = self.spans, self._stack

        def measure(args, kwargs) -> int:
            if layer == "grid":
                return _array_size(args)
            if sig is None or name not in ("band_mass", "masked_convolution"):
                return 0
            try:
                bound = sig.bind(*args, **kwargs)
            except TypeError:
                return 0
            return _band_cells(bound) if name == "band_mass" else _conv_pairs(bound)

        def wrapper(*args, **kwargs):
            span = Span(full, 0.0, parent=stack[-1] if stack else -1, op=self.op,
                        work=measure(args, kwargs))
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.result = _result_fields(name, out)
            return out

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    # ------------------------------------------------------------ aggregates

    def aggregates(self) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self_s = [s.end - s.start - c for s, c in zip(spans, child_time)]

        def under(i, name):
            p = spans[i].parent
            while p >= 0:
                if spans[p].name == name:
                    return True
                p = spans[p].parent
            return False

        def is_grid(i):
            return spans[i].name.startswith("grid.")

        # outermost transforms only, so a transform built on another counts once
        top_grid = [i for i, s in enumerate(spans)
                    if is_grid(i) and not (s.parent >= 0 and is_grid(s.parent))]

        def count(name):
            return sum(1 for s in spans if s.name == name)

        def self_of(names):
            return sum(t for s, t in zip(spans, self_s) if s.name in names)

        def total(name, key):
            return sum(s.result.get(key, 0) for s in spans if s.name == name)

        def ratio(a, b):
            return a / b if b else 0.0

        iterations = total("solver.picard_iterate", "iterations")
        m = {
            "grid.transform_calls": len(top_grid),
            "grid.transform_points": sum(spans[i].work for i in top_grid),
            "grid.transform_s": sum(spans[i].end - spans[i].start for i in top_grid),
            "propagator.free_spacetime_calls": count("propagator.free_spacetime"),
            "propagator.free_spacetime_self_s": self_of({"propagator.free_spacetime"}),
            "propagator.duhamel_calls": count("propagator.duhamel"),
            "propagator.duhamel_self_s": self_of({"propagator.duhamel"}),
            "spaces.norm_calls": sum(count(f"spaces.{n}") for n in NORM_FUNCS),
            "spaces.norm_self_s": self_of({f"spaces.{n}" for n in NORM_FUNCS}),
            "solver.solve_local_calls": count("solver.solve_local"),
            "solver.picard_iterations": iterations,
            "solver.picard_iterate_self_s": self_of({"solver.picard_iterate"}),
            "solver.rhs_eval_calls": count("solver.rhs_eval"),
            "solver.rhs_eval_self_s": self_of({"solver.rhs_eval"}),
            "solver.select_delta_trials": total("solver.select_delta", "trials"),
            "solver.flow_lipschitz_probe_self_s": self_of({"solver.flow_lipschitz_probe"}),
            "solver.transforms_per_iteration": ratio(
                sum(1 for i in top_grid if under(i, "solver.picard_iterate")), iterations),
            "solver.solves_per_probe_pair": ratio(
                sum(1 for i, s in enumerate(spans)
                    if s.name == "solver.solve_local" and under(i, "solver.flow_lipschitz_probe")),
                total("solver.flow_lipschitz_probe", "pairs")),
            "kernels.band_mass_calls": count("kernels.band_mass"),
            "kernels.band_mass_cells": sum(s.work for s in spans if s.name == "kernels.band_mass"),
            "kernels.band_mass_s": sum(s.end - s.start for s in spans
                                       if s.name == "kernels.band_mass"),
            "kernels.masked_convolution_calls": count("kernels.masked_convolution"),
            "kernels.masked_convolution_pairs": sum(
                s.work for s in spans if s.name == "kernels.masked_convolution"),
            "kernels.masked_convolution_s": sum(s.end - s.start for s in spans
                                                if s.name == "kernels.masked_convolution"),
            "bilinear.surface_mass_calls": count("bilinear.surface_mass"),
            "bilinear.surface_mass_self_s": self_of({"bilinear.surface_mass"}),
            "bilinear.band_mass_per_surface_mass": ratio(
                sum(1 for i, s in enumerate(spans)
                    if s.name == "kernels.band_mass" and under(i, "bilinear.surface_mass")),
                count("bilinear.surface_mass")),
            "bilinear.surface_mass_unconverged": total("bilinear.surface_mass", "unconverged"),
            "bilinear.product_transform_direct_calls": count("bilinear.product_transform_direct"),
            "bilinear.product_transform_direct_self_s": self_of(
                {"bilinear.product_transform_direct"}),
            "bilinear.bilinear_symbol_product_calls": count("bilinear.bilinear_symbol_product"),
            "bilinear.bilinear_symbol_product_self_s": self_of(
                {"bilinear.bilinear_symbol_product"}),
            "dyadic.shell_surface_mass_calls": count("dyadic.shell_surface_mass"),
            "verify.check_self_s": self_of({f"verify.{n}" for n in CHECK_FUNCS}),
            "verify.extremizer_evaluations": total("verify.extremizer_search", "evaluations"),
        }
        return m

    def dump(self) -> dict:
        return {
            "missing": self.missing,
            "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans],
            "aggregates": self.aggregates(),
        }
