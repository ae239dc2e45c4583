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


def evolve(F: Spectrum, e: EvolutionSpec) -> Spectrum:
    """Apply the unitary evolution at time e.t."""
    return Spectrum(F.grid, _free_slices_at(F, e, np.array([e.t]))[0])


def free_slices(u0: Spectrum, g: SpacetimeGrid, e: EvolutionSpec) -> np.ndarray:
    """Spectral slices (M, N, N, N) of the free solution: phases times the data.

    The phase depends on xi through the radial symbol only, so it is
    evaluated once per (time, shell) and gathered onto the lattice.
    """
    if u0.grid != g.spatial:
        raise GridMismatchError("initial spectrum does not live on the spatial lattice")
    return _free_slices_at(u0, e, g.t_axis)


def _phase_table(sg, e: EvolutionSpec, t: np.ndarray) -> np.ndarray:
    """The free phases at the times t on every shell, shape (len(t), n_shells)."""
    if e.kind == "D":
        sgn, sym = e.sign, sg.shell_values
    else:
        sgn, sym = -e.sign, sg.shell_brackets
    return np.exp(1j * sgn * t[:, None] * sym[None])


def _free_slices_at(
    u0: Spectrum, e: EvolutionSpec, t: np.ndarray, size: int | None = None
) -> np.ndarray:
    """free_slices on the times t alone: each slice is the one free_slices gives.

    With size, only the first size entries of the last axis are formed.
    """
    sg = u0.grid
    # np.take gives C order, unlike table[:, index]
    out = np.take(_phase_table(sg, e, t), sg.shell_index[..., :size], axis=1)
    out *= u0.data[..., :size]
    return out


def free_spacetime(u0: Spectrum, g: SpacetimeGrid, e: EvolutionSpec) -> SpacetimeField:
    """Free solution sampled on the space-time lattice (e.t is ignored)."""
    return spatial_inverse_slices(g, free_slices(u0, g, e))


def duhamel(gs: np.ndarray, sign: int, g: SpacetimeGrid) -> np.ndarray:
    """Cumulative solution of (i d/dt - sign*J) w = g with w(0) = 0.

    Takes and returns spatial spectral slices, shape (M, N, N, N) on g.
    Trapezoidal integrating-factor rule, second order in dt, swept forward
    and backward from the time-origin lattice point.  Slice m of the result
    reads the forcing between the origin and slice m only, so a forcing that
    vanishes outside a block of slices can be swept on that block alone
    (the Picard solver does); outside it the sweep is the free step.
    """
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    if np.shape(gs) != g.shape:
        raise GridMismatchError(
            f"forcing slices of shape {np.shape(gs)} do not match the grid {g.shape}"
        )
    return _duhamel(gs, sign, g, g.origin_index)


def _duhamel(gs: np.ndarray, sign: int, g: SpacetimeGrid, m0: int) -> np.ndarray:
    """duhamel on a stack of consecutive time slices whose slice m0 is t = 0.

    The last axis may be cut to its first entries (a half spectrum).
    """
    sg = g.spatial
    dt = g.dt
    # e^{-sign i dt J}, radial: evaluated per shell and gathered
    index = sg.shell_index[..., : gs.shape[-1]]
    step = np.take(np.exp(-1j * sign * dt * sg.shell_brackets), index)
    step_back = np.conj(step)
    out = np.zeros(gs.shape, dtype=np.complex128)
    half = -1j * dt / 2.0
    for m in range(m0, len(gs) - 1):
        out[m + 1] = step * out[m] + half * (step * gs[m] + gs[m + 1])
    for m in range(m0, 0, -1):
        out[m - 1] = step_back * out[m] - half * (step_back * gs[m] + gs[m - 1])
    return out
