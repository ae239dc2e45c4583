"""Unitary free evolutions and the Duhamel integral for the first-order flow.

Two symbol families are supported: the half-wave evolution with phase
e^{sign * i t |xi|} and the Bessel flow with phase e^{-sign * i t <xi>}
(the '+' component of the first-order system flows by e^{-i t J}).  The
inhomogeneous problem (i d/dt - sign*J) w = g, w(0) = 0 is integrated by a
trapezoidal exponential integrator swept forward and backward from t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import (
    SpacetimeField,
    SpacetimeGrid,
    Spectrum,
    spatial_inverse_slices,
)

__all__ = ["EvolutionSpec", "evolve", "free_slices", "free_spacetime", "duhamel"]


@dataclass(frozen=True)
class EvolutionSpec:
    """kind 'D' (half-wave) or 'J' (Bessel system flow), a sign, and a time."""

    kind: str
    sign: int
    t: float = 0.0

    def __post_init__(self):
        if self.kind not in ("D", "J"):
            raise ParameterError(f"evolution kind must be 'D' or 'J', got {self.kind!r}")
        if self.sign not in (+1, -1):
            raise ParameterError(f"sign must be +1 or -1, got {self.sign}")


def _symbol(grid, kind: str) -> np.ndarray:
    xi = grid.xi_modulus()
    if kind == "D":
        return xi
    return np.sqrt(1.0 + xi**2)


def _phase(grid, e: EvolutionSpec, t: float) -> np.ndarray:
    sym = _symbol(grid, e.kind)
    if e.kind == "D":
        return np.exp(1j * e.sign * t * sym)
    return np.exp(-1j * e.sign * t * sym)


def evolve(F: Spectrum, e: EvolutionSpec) -> Spectrum:
    """Apply the unitary evolution at time e.t."""
    return Spectrum(F.grid, F.data * _phase(F.grid, e, e.t))


def free_slices(u0: Spectrum, g: SpacetimeGrid, e: EvolutionSpec) -> np.ndarray:
    """Spectral slices (M, N, N, N) of the free solution: phases times the data."""
    if u0.grid != g.spatial:
        raise GridMismatchError("initial spectrum does not live on the spatial lattice")
    sym = _symbol(g.spatial, e.kind)
    sgn = e.sign if e.kind == "D" else -e.sign
    phases = np.exp(1j * sgn * g.t_axis[:, None, None, None] * sym[None])
    return phases * u0.data[None]


def free_spacetime(u0: Spectrum, g: SpacetimeGrid, e: EvolutionSpec) -> SpacetimeField:
    """Free solution sampled on the space-time lattice (e.t is ignored)."""
    return spatial_inverse_slices(g, free_slices(u0, g, e))


def duhamel(gs: np.ndarray, sign: int, g: SpacetimeGrid) -> np.ndarray:
    """Cumulative solution of (i d/dt - sign*J) w = g with w(0) = 0.

    Takes and returns spatial spectral slices, shape (M, N, N, N) on g.
    Trapezoidal integrating-factor rule, second order in dt, swept forward
    and backward from the time-origin lattice point.
    """
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    if np.shape(gs) != g.shape:
        raise GridMismatchError(
            f"forcing slices of shape {np.shape(gs)} do not match the grid {g.shape}"
        )
    sym = _symbol(g.spatial, "J")
    dt = g.dt
    step = np.exp(-1j * sign * dt * sym)       # e^{-sign i dt J}
    step_back = np.conj(step)
    out = np.zeros(g.shape, dtype=np.complex128)
    m0 = g.origin_index
    half = -1j * dt / 2.0
    for m in range(m0, g.m - 1):
        out[m + 1] = step * out[m] + half * (step * gs[m] + gs[m + 1])
    for m in range(m0, 0, -1):
        out[m - 1] = step_back * out[m] - half * (step_back * gs[m] + gs[m - 1])
    return out
