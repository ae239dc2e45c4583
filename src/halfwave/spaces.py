"""Fourier-Lebesgue and modulation-weighted space-time norms as discrete sums.

The data norm weights the spatial transform by <xi>^s and takes an L^{r'}
lattice sum; the space-time norms add the modulation weight
<tau - sign*|xi|>^b.  Under the global e^{-i t tau} transform convention a
free wave e^{+i t D} u0 concentrates on tau = |xi|, so the '+' weight
measures distance to that cone and free +waves carry zero modulation.

The time window of the X^{s,b}_delta norms keeps all its rules here:
_grid_window checks its support and flat core, _core_slices and
_window_block give its core and its block of nonzero slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError, RepresentationError
from .grid import (
    SpacetimeField,
    SpacetimeGrid,
    SpacetimeSpectrum,
    Spectrum,
    _dft,
    _signs,
    forward_transform,
    reflect,
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
        if not (math.isfinite(self.s) and math.isfinite(self.b)):
            raise ParameterError(f"s and b must be finite, got s = {self.s}, b = {self.b}")
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


# slack of the window's time comparisons: no rounding of delta drops a core slice
_TIME_SLACK = 1e-12


def _grid_window(g, w: WindowSpec, delta: float | None = None) -> np.ndarray:
    """The window on g's time axis.  Its support must fit inside the time
    box and, when delta is given, [-delta, delta] inside its flat core."""
    if w.support > g.half_time:
        raise ParameterError(
            f"window support {w.support} exceeds the time half-width {g.half_time}"
        )
    if delta is not None and delta > w.flat_core + _TIME_SLACK:
        raise ParameterError(f"delta = {delta} exceeds the window flat core {w.flat_core}")
    return window_values(w, g.t_axis)


def _core_slices(g, delta: float) -> np.ndarray:
    """Which slices of g's time axis lie in [-delta, delta]."""
    return np.abs(g.t_axis) <= delta + _TIME_SLACK


def _window_block(factor: np.ndarray) -> slice | None:
    """The slices from the first to the last on which factor is nonzero,
    None if there are none.  A window is even and nonincreasing in |t|, so
    its nonzero slices are this one block around t = 0."""
    nonzero = np.flatnonzero(factor)
    return slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else None


def sobolev_hat_norm(F: Spectrum, r: float, s: float) -> float:
    """(sum <xi>^{s r'} |F|^{r'} dxi^3)^{1/r'} over the spatial lattice."""
    _check_r(r)
    if not isinstance(F, Spectrum):
        raise RepresentationError("sobolev_hat_norm expects a spatial Spectrum")
    g = F.grid
    return float(_lattice_norms(g, [F.data], (_sobolev_weight(g, r, s), None), r)[0])


def _sobolev_weight(sg, r: float, s: float) -> np.ndarray:
    """<xi>^{s r'} on the spatial lattice, evaluated per shell and gathered."""
    return np.take(sg.shell_brackets ** (s * dual_exponent(r)), sg.shell_index)


def _mate(weight: np.ndarray) -> np.ndarray:
    """The mate of a norm on the half lattice of real data, the first h
    entries of the last axis: F_+ off the half is conj F_- at the reflected
    point, (t, -xi) or (-tau, -xi), so the weight there, given here, times
    |F_-| stands for it.  The half holds the self-conjugate planes 0 and h-1
    whole, so the mate is zeroed there, in place."""
    weight[..., [0, -1]] = 0.0
    return weight


def _slice_weights(sg, r: float, s: float, h: int) -> tuple:
    """(weight, mate) of the slice norms on the first h entries of the last
    axis; the weight is radial, so its reflection is itself.  On the full
    lattice the mate is None."""
    wt = _sobolev_weight(sg, r, s)[..., :h]
    return wt, None if h == sg.n else _mate(wt.copy())


def _xsb_weights(g: SpacetimeGrid, p: NormParams, h: int) -> tuple:
    """(weight, mate) of the X-norm on the first h entries of the last axis;
    the mate is the X-weight reflected in tau.  On the full lattice it is None."""
    index = g.spatial.shell_index[..., :h]
    table = _xsb_weight_table(g, p)
    wt = np.take(table, index, axis=1)
    if h == g.spatial.n:
        return wt, None
    return wt, _mate(np.take(reflect(table, (0,)), index, axis=1))


def _root(total, g, rp: float):
    """(total times the lattice cell dxi^3, or dxi^3 dtau on a space-time
    grid)^{1/r'}: a lattice sum made a norm."""
    if isinstance(g, SpacetimeGrid):
        return (total * g.spatial.dxi**3 * g.dtau) ** (1.0 / rp)
    return (total * g.dxi**3) ** (1.0 / rp)


def _lattice_norms(g, spectra, weights, r: float, axes=None) -> list:
    """The L^{r'} norm (sum wt |F|^{r'})^{1/r'} of each array F of spectra on
    g's lattice, summed over axes, for weights = (wt, mate).  With a mate (see
    _mate) spectra is a pair (F_+, F_-), and each sum adds that of the mate
    times the other's |F|^{r'}."""
    rp = dual_exponent(r)
    wt, mate = weights
    powers = list(map(np.abs, spectra))     # drops each spectrum once its |F| is formed
    for a in powers:
        a **= rp
    mates = [0.0] * len(powers) if mate is None else [
        np.sum(a * mate, axis=axes) for a in powers[::-1]]
    return [_root(np.sum(np.multiply(a, wt, out=a), axis=axes) + m, g, rp)
            for a, m in zip(powers, mates)]


def _slice_norms(g: SpacetimeGrid, pair, r: float, s: float) -> list:
    """The data-space norm of every time slice of both components of pair.

    pair is (F_+, F_-), or their differences, as spatial spectral slices on
    the full lattice or, for real data (F_- = conj R F_+), on the half
    lattice; the last axis says which.  Returns the two per-slice curves.
    """
    weights = _slice_weights(g.spatial, r, s, pair[0].shape[-1])
    return _lattice_norms(g.spatial, pair, weights, r, (1, 2, 3))


def _spacetime_spectrum(u) -> SpacetimeSpectrum:
    if isinstance(u, SpacetimeSpectrum):
        return u
    if isinstance(u, SpacetimeField):
        return forward_transform(u)
    raise RepresentationError("expected a space-time field or spectrum")


def lr_xt_norm(F, r: float) -> float:
    """Unweighted space-time lattice L^{r'} norm of the full transform."""
    _check_r(r)
    S = _spacetime_spectrum(F)
    return float(_lattice_norms(S.grid, [S.data], (1.0, None), r)[0])


# lattice points per time transform of _block_norms: 2^16 points is 1 MB of complex data
_CHUNK_POINTS = 1 << 16


def _block_norms(g: SpacetimeGrid, keep: slice | None, block, r: float, terms) -> list:
    """The weighted space-time norms (sum (c(tau) a(|xi|) |S|)^{r'} dxi^3 dtau)^{1/r'}
    of a windowed product's spectrum S, given its spatial spectra on its
    window block: block (K, N, N, N) holds the slices keep, and the others
    are zero.  keep None is the product that vanishes.

    terms holds one (a, c) per norm: a a table on g's shells, c a factor on
    the tau axis or None for 1.  The block is read one chunk of _CHUNK_POINTS
    lattice points at a time: copied into the zero padding times the time
    signs and transformed bare, it gives |S|/dt (dt^{r'} goes into the root);
    |S| is raised to r' once, each term adds a matrix-vector product with
    a^{r'}, gathered onto the lattice once, to its sum per tau, and the sums
    are dotted with c^{r'} at the end.  No (M, N^3) array is formed.

    A block whose last axis holds h = N//2 + 1 entries, such as a view of
    the first h of the full block's, is the half lattice of a
    conjugate-symmetric product, S(tau, -xi) = conj S(tau, xi): it is read
    off the array, as grid._dft reads its half spectra.  Its chunks are
    whole rows of h columns, and the columns off the self-conjugate planes
    0 and h-1 count twice, for their mates at -xi (as in _mate).
    """
    _check_r(r)
    rp = dual_exponent(r)
    sums = np.zeros((len(terms), g.m))
    if keep is not None:
        h = block.shape[-1]
        index = g.spatial.shell_index[..., :h]
        tables = [np.take(a**rp, index) for a, _ in terms]
        width = 1 if h == g.spatial.n else h
        if width > 1:
            for table in tables:
                table[..., 1:-1] *= 2.0
        tables = [table.ravel() for table in tables]
        rows = block.reshape(len(block), -1, width)     # a view, of the half lattice too
        step = max(1, _CHUNK_POINTS // (g.m * width))
        pad = np.empty((g.m, min(step, rows.shape[1]) * width), dtype=np.complex128)
        for start in range(0, rows.shape[1], step):
            chunk = rows[:, start : start + step]
            part = pad[:, : chunk[0].size]
            part[: keep.start] = part[keep.stop :] = 0.0    # the bare transform overwrote them
            np.multiply(chunk, _signs(g.m)[keep, None, None], out=part[keep].reshape(chunk.shape))
            power = np.abs(_dft(part, time=g, bare=True))
            power **= rp
            columns = slice(start * width, start * width + part.shape[1])
            for total, table in zip(sums, tables):
                total += power @ table[columns]
    return [float(_root(g.dt**rp * (total.sum() if c is None else total @ c**rp), g, rp))
            for total, (_, c) in zip(sums, terms)]


def _xsb_weight_table(grid, p: NormParams) -> np.ndarray:
    """<xi>^{s r'} <tau - sign*|xi|>^{b r'} per (tau, shell), shape (M, n_shells)."""
    sg = grid.spatial
    tau = grid.tau_axis[:, None]
    rp = p.rprime
    modulation = np.sqrt(1.0 + (tau - p.sign * sg.shell_values) ** 2)
    return sg.shell_brackets ** (p.s * rp) * modulation ** (p.b * rp)


def xsb_norm(u, p: NormParams) -> float:
    """Modulation-weighted space-time norm; fields are transformed first."""
    F = _spacetime_spectrum(u)
    g = F.grid
    return float(_lattice_norms(g, [F.data], _xsb_weights(g, p, g.spatial.n), p.r)[0])


def _free_xsb_norm(u0: Spectrum, g, time_factor: np.ndarray, p: NormParams) -> float:
    """xsb_norm of the free wave time_factor(t) e^{i sign t|xi|} u0, sign = p.sign.

    Taken from the data, with no lattice transform: the space-time spectrum
    is T(tau, shell(xi)) u0(xi), where T is the time transform of
    time_factor(t) e^{i sign t|xi|} on each shell.  So the norm is the sum
    over (tau, shell) of the X-weight times |T|^{r'} times the shell sum of
    |u0|^{r'}.  T is transformed bare, as in _block_norms.
    """
    sg = g.spatial
    rp = p.rprime
    phases = _phase_table(sg, EvolutionSpec("D", p.sign), g.t_axis)
    phases *= (time_factor * _signs(g.m))[:, None]
    T = np.abs(_dft(phases, time=g, bare=True))
    T **= rp
    T *= _xsb_weight_table(g, p)
    a = np.abs(u0.data)
    a **= rp
    shell_sums = np.bincount(sg.shell_index.ravel(), weights=a.ravel(),
                             minlength=sg.shell_values.size)
    return float(_root(g.dt**rp * np.dot(T.sum(axis=0), shell_sums), g, rp))


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
    vals = _grid_window(u.grid, w, delta)
    return xsb_norm(SpacetimeField(u.grid, u.data * vals[:, None, None, None]), p)
