"""Fourier-Lebesgue and modulation-weighted space-time norms as discrete sums.

The data norm weights the spatial transform by <xi>^s and takes an L^{r'}
lattice sum; the space-time norms add the modulation weight
<tau - sign*|xi|>^b.  Under the global e^{-i t tau} transform convention a
free wave e^{+i t D} u0 concentrates on tau = |xi|, so the '+' weight
measures distance to that cone and free +waves carry zero modulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError, RepresentationError
from .grid import (
    SpacetimeField,
    SpacetimeSpectrum,
    Spectrum,
    forward_transform,
    time_forward,
)
from .propagator import EvolutionSpec, _phase_table

__all__ = [
    "NormParams",
    "WindowSpec",
    "dual_exponent",
    "window_values",
    "sobolev_hat_norm",
    "lr_xt_norm",
    "xsb_norm",
    "z_norm",
    "restricted_norm",
    "apply_window",
]


def dual_exponent(r: float) -> float:
    """r' with 1/r + 1/r' = 1."""
    return r / (r - 1.0)


def _check_r(r: float):
    if not 1.0 < r <= 2.0:
        raise ParameterError(f"Lebesgue index r must lie in (1, 2], got {r}")


@dataclass(frozen=True)
class NormParams:
    """Exponents (r, s, b) and the sign of the modulation weight."""

    r: float
    s: float = 0.0
    b: float = 0.0
    sign: int = +1

    def __post_init__(self):
        _check_r(self.r)
        if self.sign not in (+1, -1):
            raise ParameterError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def rprime(self) -> float:
        return dual_exponent(self.r)


@dataclass(frozen=True)
class WindowSpec:
    """Time cutoff: 1 on the flat core, raised-cosine decay to 0 outside.

    support is the half-width of the support; the flat core has half-width
    flat_fraction * support, so flat_fraction=1 is the sharp indicator of
    |t| <= support.
    """

    flat_fraction: float = 0.5
    support: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.flat_fraction <= 1.0:
            raise ParameterError("flat_fraction must lie in [0, 1]")
        if self.support <= 0:
            raise ParameterError("window support must be positive")

    @property
    def flat_core(self) -> float:
        return self.flat_fraction * self.support


def window_values(w: WindowSpec, t) -> np.ndarray:
    """Sample the window on the given times."""
    t = np.abs(np.asarray(t, dtype=float))
    core = w.flat_core
    ramp = w.support - core
    out = np.zeros_like(t)
    out[t <= core] = 1.0
    mid = (t > core) & (t < w.support)
    if ramp > 0:
        out[mid] = 0.5 * (1.0 + np.cos(np.pi * (t[mid] - core) / ramp))
    return out


def _grid_window(g, w: WindowSpec) -> np.ndarray:
    """The window on g's time axis; it must fit inside the time range."""
    if w.support > g.half_time:
        raise ParameterError(
            f"window support {w.support} exceeds the time half-width {g.half_time}"
        )
    return window_values(w, g.t_axis)


def apply_window(u: SpacetimeField, w: WindowSpec) -> SpacetimeField:
    """Multiply a space-time field by the time window."""
    vals = _grid_window(u.grid, w)
    return SpacetimeField(u.grid, u.data * vals[:, None, None, None])


def sobolev_hat_norm(F: Spectrum, r: float, s: float) -> float:
    """(sum <xi>^{s r'} |F|^{r'} dxi^3)^{1/r'} over the spatial lattice."""
    _check_r(r)
    if not isinstance(F, Spectrum):
        raise RepresentationError("sobolev_hat_norm expects a spatial Spectrum")
    rp = dual_exponent(r)
    g = F.grid
    total = np.sum(_sobolev_weight(g, r, s) * np.abs(F.data) ** rp) * g.dxi**3
    return float(total ** (1.0 / rp))


def _sobolev_weight(sg, r: float, s: float) -> np.ndarray:
    """<xi>^{s r'} on the spatial lattice, evaluated per shell and gathered."""
    return np.take(sg.shell_brackets ** (s * dual_exponent(r)), sg.shell_index)


def _spacetime_spectrum(u) -> SpacetimeSpectrum:
    if isinstance(u, SpacetimeSpectrum):
        return u
    if isinstance(u, SpacetimeField):
        return forward_transform(u)
    raise RepresentationError("expected a space-time field or spectrum")


def lr_xt_norm(F, r: float) -> float:
    """Unweighted space-time lattice L^{r'} norm of the full transform."""
    _check_r(r)
    F = _spacetime_spectrum(F)
    rp = dual_exponent(r)
    g = F.grid
    total = np.sum(np.abs(F.data) ** rp) * g.spatial.dxi**3 * g.dtau
    return float(total ** (1.0 / rp))


def _xsb_weight_table(grid, p: NormParams) -> np.ndarray:
    """<xi>^{s r'} <tau - sign*|xi|>^{b r'} per (tau, shell), shape (M, n_shells)."""
    sg = grid.spatial
    tau = grid.tau_axis[:, None]
    rp = p.rprime
    modulation = np.sqrt(1.0 + (tau - p.sign * sg.shell_values) ** 2)
    return sg.shell_brackets ** (p.s * rp) * modulation ** (p.b * rp)


def _xsb_weight(grid, p: NormParams) -> np.ndarray:
    """The X-weight on the (M, N, N, N) lattice.

    The weight is radial in xi: it is evaluated once per (tau, shell) and
    gathered through the grid's shell_index.
    """
    return np.take(_xsb_weight_table(grid, p), grid.spatial.shell_index, axis=1)


def xsb_norm(u, p: NormParams) -> float:
    """Modulation-weighted space-time norm; fields are transformed first."""
    F = _spacetime_spectrum(u)
    g = F.grid
    a = np.abs(F.data)
    a **= p.rprime
    a *= _xsb_weight(g, p)
    return float((np.sum(a) * g.spatial.dxi**3 * g.dtau) ** (1.0 / p.rprime))


def _free_xsb_norm(u0: Spectrum, g, time_factor: np.ndarray, p: NormParams) -> float:
    """xsb_norm of the free wave time_factor(t) e^{i sign t|xi|} u0, sign = p.sign.

    Taken from the data, with no lattice transform: the space-time spectrum
    is T(tau, shell(xi)) u0(xi), where T is the time transform of
    time_factor(t) e^{i sign t|xi|} on each shell.  So the norm is the sum
    over (tau, shell) of the X-weight times |T|^{r'} times the shell sum of
    |u0|^{r'}.
    """
    sg = g.spatial
    rp = p.rprime
    phases = _phase_table(sg, EvolutionSpec("D", p.sign), g.t_axis)
    phases *= time_factor[:, None]
    T = np.abs(time_forward(g, phases))
    T **= rp
    T *= _xsb_weight_table(g, p)
    a = np.abs(u0.data)
    a **= rp
    shell_sums = np.bincount(sg.shell_index.ravel(), weights=a.ravel(),
                             minlength=sg.shell_values.size)
    total = np.dot(T.sum(axis=0), shell_sums)
    return float((total * sg.dxi**3 * g.dtau) ** (1.0 / rp))


def z_norm(u, dtu, p: NormParams) -> float:
    """xsb norm of u at regularity s plus that of its time derivative at s-1."""
    Fu = _spacetime_spectrum(u)
    Fd = _spacetime_spectrum(dtu)
    if Fu.grid != Fd.grid:
        raise GridMismatchError("u and dt(u) live on different grids")
    lower = NormParams(p.r, p.s - 1.0, p.b, p.sign)
    return xsb_norm(Fu, p) + xsb_norm(Fd, lower)


def restricted_norm(u: SpacetimeField, delta: float, w: WindowSpec, p: NormParams) -> float:
    """Upper bound for the [-delta, delta] restriction norm via one window.

    The true restriction norm is an infimum over extensions; windowing the
    field with a cutoff that equals 1 on [-delta, delta] produces one
    admissible extension, hence an upper bound.
    """
    if delta > w.flat_core * (1.0 + 1e-12):
        raise ParameterError(
            f"delta = {delta} exceeds the window flat core {w.flat_core}"
        )
    return xsb_norm(apply_window(u, w), p)
