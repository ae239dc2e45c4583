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

__all__ = ["EvolutionSpec", "free_slices", "free_spacetime", "duhamel"]


@dataclass(frozen=True)
class EvolutionSpec:
    """kind 'D' (half-wave) or 'J' (Bessel system flow) and a sign."""

    kind: str
    sign: int

    def __post_init__(self):
        if self.kind not in ("D", "J"):
            raise ParameterError(f"evolution kind must be 'D' or 'J', got {self.kind!r}")
        if self.sign not in (+1, -1):
            raise ParameterError(f"sign must be +1 or -1, got {self.sign}")


def free_slices(u0: Spectrum, g: SpacetimeGrid, e: EvolutionSpec) -> np.ndarray:
    """Spectral slices (M, N, N, N) of the free solution: phases times the data.

    The phase depends on xi through the radial symbol only, so it is
    evaluated once per (time, shell) and gathered onto the lattice.
    """
    if u0.grid != g.spatial:
        raise GridMismatchError("initial spectrum does not live on the spatial lattice")
    return _free_slices_at(u0.grid, u0.data, e, g.t_axis)


def _phase_table(sg, e: EvolutionSpec, t: np.ndarray) -> np.ndarray:
    """The free phases at the times t on every shell, shape (len(t), n_shells).

    The one place a free phase is evaluated: the free slices, the Duhamel
    step and the free X-norm all read it.
    """
    if e.kind == "D":
        sgn, sym = e.sign, sg.shell_values
    else:
        sgn, sym = -e.sign, sg.shell_brackets
    return np.exp(1j * sgn * t[:, None] * sym[None])


def _free_slices_at(sg, a: np.ndarray, e: EvolutionSpec, t: np.ndarray) -> np.ndarray:
    """free_slices of the data a on the lattice sg, on the times t alone:
    each slice is the one free_slices gives.  a may hold the first entries
    of the last axis alone, and so does the result.
    """
    # np.take gives C order, unlike table[:, index]
    out = np.take(_phase_table(sg, e, t), sg.shell_index[..., :a.shape[-1]], axis=1)
    out *= a
    return out


def free_spacetime(u0: Spectrum, g: SpacetimeGrid, e: EvolutionSpec) -> SpacetimeField:
    """Free solution sampled on the space-time lattice."""
    return spatial_inverse_slices(g, free_slices(u0, g, e))


def _duhamel_step(g: SpacetimeGrid, sign: int, size: int) -> np.ndarray:
    """e^{-sign i dt J}, the J-flow phase at t = dt, gathered from its shells
    onto the first size entries of the last axis; its conjugate steps back."""
    sg = g.spatial
    table = _phase_table(sg, EvolutionSpec("J", sign), np.array([g.dt]))[0]
    return np.take(table, sg.shell_index[..., :size])


def duhamel(gs: np.ndarray, sign: int, g: SpacetimeGrid) -> np.ndarray:
    """Cumulative solution of (i d/dt - sign*J) w = g with w(0) = 0.

    Takes and returns spatial spectral slices, shape (M, N, N, N) on g.
    Trapezoidal integrating-factor rule, second order in dt, swept forward
    and backward from the time-origin lattice point.  Slice m of the result
    reads the forcing between the origin and slice m only, so a forcing that
    vanishes outside a block of slices can be swept on that block alone
    (the Picard loop's sweep, solver._linear_sweep, does); outside it the
    sweep is the free step.
    """
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    if np.shape(gs) != g.shape:
        raise GridMismatchError(
            f"forcing slices of shape {np.shape(gs)} do not match the grid {g.shape}"
        )
    step = _duhamel_step(g, sign, g.spatial.n)
    step_back = np.conj(step)
    out = np.zeros(gs.shape, dtype=np.complex128)
    half = -1j * g.dt / 2.0
    m0 = g.origin_index
    for m in range(m0, len(gs) - 1):
        out[m + 1] = step * out[m] + half * (step * gs[m] + gs[m + 1])
    for m in range(m0, 0, -1):
        out[m - 1] = step_back * out[m] - half * (step_back * gs[m] + gs[m - 1])
    return out
