"""Discrete space and space-time lattices with continuum-normalized transforms.

The spatial box is [-L, L)^3 sampled at N points per axis, x_n = -L + n*dx
with dx = 2L/N.  The paired frequency lattice is xi_j = j*pi/L for
j = -N/2 .. N/2-1, so dx*dxi = 2*pi/N exactly and the discrete transform

    F(xi) = dx^3 * sum_x f(x) exp(-i<x, xi>)

is a Riemann sum for the continuum Fourier integral.  The time direction,
when present, uses the same construction on [-T, T) with the convention
F_t u(tau) = dt * sum_t u(t) exp(-i t tau).

All sample arrays are stored in ascending-coordinate order: x (and t)
increase along each axis, and frequency axes run from -N/2*dxi upward.

Every transform goes through one routine, _dft: one fused scipy.fft call
over the last three (space) axes, axis 0 (time), or both; the typed
front-ends name which.  Because N and M are even, the fftshift that centers
the frequency axis is the same as multiplying by the (-1)^n checkerboard,
which is applied before and after the FFT; the remaining (-1)^(N/2) and the
lattice steps fold into one scalar (_dft_scale).  The 1-D sign vectors and
the N^3 spatial checkerboards are cached read-only by size; nothing of size
M*N^3 is cached.  A bare transform (_dft(..., bare=True)) skips the sign and
scale passes; its caller folds them into multiplies it makes anyway.  The
two product kernels, the solver's (into its cached spectral tables) and the
estimate harness's (bilinear._product_block: into its data and its time
factor), make one multiply before each inverse, one x-space sign pass per
product and one multiply after the forward transform.  Where only the
modulus of a time spectrum is read, the input carries the time signs and
dt goes into the norm: the solver's X-distance (in its time window),
spaces._block_norms (in the copy into the zero padding) and _free_xsb_norm.

SpatialGrid is the one symbol table: |xi|, <xi> = (1 + |xi|^2)^(1/2) and the
2/3-rule dealiasing mask are built once per grid and cached read-only.  So
are the shell tables: |xi| takes far fewer distinct values than the lattice
has points (116 at N = 16), so a radial symbol is evaluated once per shell,
on shell_values, and gathered through shell_index.  <xi> per shell comes
from the same expression as on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.fft as sfft

from .errors import GridMismatchError, ParameterError, RepresentationError

__all__ = [
    "SpatialGrid",
    "SpacetimeGrid",
    "Field",
    "Spectrum",
    "SpacetimeField",
    "SpacetimeSpectrum",
    "forward_transform",
    "inverse_transform",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _axis_points(n: int, half_length: float) -> np.ndarray:
    step = 2.0 * half_length / n
    return -half_length + step * np.arange(n)


def _freq_axis(n: int, half_length: float) -> np.ndarray:
    step = np.pi / half_length
    return step * np.arange(-n // 2, n // 2)


def _bracket(modulus: np.ndarray) -> np.ndarray:
    """<xi> = (1 + |xi|^2)^(1/2) from |xi|."""
    return np.sqrt(1.0 + modulus**2)


@dataclass(frozen=True)
class SpatialGrid:
    """Cubic lattice for the periodic box [-L, L)^3."""

    n: int
    half_length: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ParameterError(f"N must be an even integer >= 4, got {self.n}")
        if not 0 < self.half_length < np.inf:
            raise ParameterError(f"L must be finite and positive, got {self.half_length}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def dxi(self) -> float:
        return np.pi / self.half_length

    @property
    def nyquist(self) -> float:
        """Largest per-axis frequency magnitude, (N/2)*dxi."""
        return (self.n // 2) * self.dxi

    @property
    def x_axis(self) -> np.ndarray:
        return _axis_points(self.n, self.half_length)

    @property
    def xi_axis(self) -> np.ndarray:
        return _freq_axis(self.n, self.half_length)

    def xi_mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Open-grid frequency component arrays, broadcastable to (N, N, N)."""
        ax = self.xi_axis
        return ax[:, None, None], ax[None, :, None], ax[None, None, :]

    @cached_property
    def modulus(self) -> np.ndarray:
        """|xi| on the (N, N, N) lattice, read-only."""
        k1, k2, k3 = self.xi_mesh()
        return _read_only(np.sqrt(k1**2 + k2**2 + k3**2))

    @cached_property
    def bracket(self) -> np.ndarray:
        """<xi> = (1 + |xi|^2)^(1/2), the symbol of J, read-only."""
        return _read_only(_bracket(self.modulus))

    @cached_property
    def _shells(self) -> tuple[np.ndarray, np.ndarray]:
        values, index = np.unique(self.modulus, return_inverse=True)
        return _read_only(values), _read_only(index.reshape(self.shape))

    @property
    def shell_values(self) -> np.ndarray:
        """The distinct values of |xi|, strictly increasing, read-only."""
        return self._shells[0]

    @property
    def shell_index(self) -> np.ndarray:
        """(N, N, N) index into shell_values: shell_values[shell_index] == modulus."""
        return self._shells[1]

    @cached_property
    def shell_brackets(self) -> np.ndarray:
        """<xi> on each shell, read-only: shell_brackets[shell_index] == bracket."""
        return _read_only(_bracket(self.shell_values))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: every component below 2/3 of the Nyquist, read-only."""
        k1, k2, k3 = self.xi_mesh()
        cut = (2.0 / 3.0) * self.nyquist
        return _read_only((np.abs(k1) < cut) & (np.abs(k2) < cut) & (np.abs(k3) < cut))

    def xi_modulus(self) -> np.ndarray:
        """|xi| on the lattice (the cached, read-only modulus)."""
        return self.modulus

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)


@dataclass(frozen=True)
class SpacetimeGrid:
    """Spatial lattice extended by a time lattice on [-T, T)."""

    spatial: SpatialGrid
    m: int
    half_time: float

    def __post_init__(self):
        if self.m < 4 or self.m % 2 != 0:
            raise ParameterError(f"M must be an even integer >= 4, got {self.m}")
        if not 0 < self.half_time < np.inf:
            raise ParameterError(f"T must be finite and positive, got {self.half_time}")

    @property
    def dt(self) -> float:
        return 2.0 * self.half_time / self.m

    @property
    def dtau(self) -> float:
        return np.pi / self.half_time

    @property
    def t_axis(self) -> np.ndarray:
        return _axis_points(self.m, self.half_time)

    @property
    def tau_axis(self) -> np.ndarray:
        return _freq_axis(self.m, self.half_time)

    @property
    def origin_index(self) -> int:
        """Lattice index of t = 0 (the center of the time axis)."""
        return self.m // 2

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.m,) + self.spatial.shape


class _LatticeData:
    """Complex samples bound to a lattice; subclasses fix the representation."""

    is_frequency: bool
    is_spacetime: bool

    def __init__(self, grid, data):
        data = np.ascontiguousarray(data, dtype=np.complex128)
        expected = grid.shape
        if data.shape != expected:
            raise GridMismatchError(
                f"sample array shape {data.shape} does not match lattice {expected}"
            )
        self.grid = grid
        self.data = data


class Field(_LatticeData):
    """Configuration-space samples over a SpatialGrid."""

    is_frequency = False
    is_spacetime = False


class Spectrum(_LatticeData):
    """Frequency-space samples over a SpatialGrid (continuum-normalized)."""

    is_frequency = True
    is_spacetime = False


class SpacetimeField(_LatticeData):
    """Configuration samples over a SpacetimeGrid; axis 0 is time."""

    is_frequency = False
    is_spacetime = True


class SpacetimeSpectrum(_LatticeData):
    """Full (xi, tau) transform over a SpacetimeGrid; axis 0 is tau."""

    is_frequency = True
    is_spacetime = True


@lru_cache(maxsize=16)
def _signs(n: int) -> np.ndarray:
    """(-1)^k for k = 0 .. n-1, read-only."""
    return _read_only(np.where(np.arange(n) % 2 == 0, 1.0, -1.0))


@lru_cache(maxsize=8)
def _checkerboard(n: int) -> np.ndarray:
    """(-1)^(i+j+k) on the N^3 lattice, read-only."""
    s = _signs(n)
    return _read_only(s[:, None, None] * s[None, :, None] * s[None, None, :])


def _half_sign(n: int) -> float:
    """(-1)^(n/2), the phase that ties the centered index j = k - n/2 to k."""
    return -1.0 if (n // 2) % 2 else 1.0


def _dft_scale(
    space: SpatialGrid | None = None, time: SpacetimeGrid | None = None, inverse: bool = False,
) -> float:
    """The scalar of a centered transform: (-1)^(n/2) per transformed axis
    family times the lattice steps, dx^3 and dt, or their inverse."""
    half, cell = 1.0, 1.0
    if time is not None:
        half, cell = _half_sign(time.m), time.dt
    if space is not None:
        half *= _half_sign(space.n)
        cell *= space.dx**3
    if inverse:
        # dx**-3 and 1/dx**3 differ in the last bit on some lattices
        cell = space.dx**-3 if time is None else 1.0 / cell
    return half * cell


def _dft(
    data, space: SpatialGrid | None = None, time: SpacetimeGrid | None = None,
    inverse: bool = False, bare: bool = False,
) -> np.ndarray:
    """The centered lattice transform of data, or its inverse: every transform.

    space transforms the last three axes on that lattice, time transforms
    axis 0 on the time lattice of that grid, at any ndim.  The result is
    scale * S * DFT(S * data), S the product of the (-1)^k sign arrays of
    the transformed axes: for even n, fftshift(fft(f)) = fft((-1)^k f), and
    the output phase (-1)^j equals (-1)^k * (-1)^(n/2), folded into scale
    (_dft_scale) with the lattice steps.  The inverse has the same form with
    ifft.

    bare returns DFT(data) alone, with no sign or scale pass, and may
    overwrite data: the caller folds S and scale into its own multiplies.

    The real path is read off the array: a real spatial input, or a spatial
    inverse input on the half lattice, goes through rfftn/irfftn.  S is even
    under k -> (-k) mod n, so it maps a Hermitian spectrum (F(-xi) =
    conj F(xi)) to a Hermitian DFT input.  The spectrum is then held on its
    half lattice, the first n//2 + 1 entries of the last axis
    (j = -n/2 .. 0), and S is cut to that half on the spectral side.
    """
    ndim = np.ndim(data)
    axes = [0] if time is not None else []
    if space is not None:
        axes += range(ndim - 3, ndim)
    real = space is not None and (data.shape[-1] < space.n if inverse else np.isrealobj(data))
    if not real:
        dft = sfft.ifftn if inverse else sfft.fftn
    elif inverse:
        dft = partial(sfft.irfftn, s=[data.shape[a] for a in axes[:-1]] + [space.n])
    else:
        dft = sfft.rfftn
    if bare:
        return dft(data, axes=axes, overwrite_x=True)

    signs = []
    if time is not None:
        signs.append(_signs(time.m).reshape((time.m,) + (1,) * (ndim - 1)))
    if space is not None:
        signs.append(_checkerboard(space.n))
    signs_in = signs_out = signs
    if real:
        cut = [s[..., : space.n // 2 + 1] for s in signs]
        if inverse:
            signs_in = cut
        else:
            signs_out = cut
    out = data * signs_in[0]       # a fresh array, transformed in place
    for s in signs_in[1:]:
        out *= s
    out = dft(out, axes=axes, overwrite_x=True)
    for s in signs_out[:-1]:
        out *= s
    out *= _dft_scale(space, time, inverse) * signs_out[-1]
    return out


def forward_transform(f):
    """Continuum-normalized forward transform (space, and time when present)."""
    if f.is_frequency:
        raise RepresentationError("forward_transform expects configuration data")
    if f.is_spacetime:
        return SpacetimeSpectrum(f.grid, _dft(f.data, f.grid.spatial, f.grid))
    return Spectrum(f.grid, _dft(f.data, f.grid))


def inverse_transform(F):
    """Exact inverse of forward_transform."""
    if not F.is_frequency:
        raise RepresentationError("inverse_transform expects frequency data")
    if F.is_spacetime:
        return SpacetimeField(F.grid, _dft(F.data, F.grid.spatial, F.grid, inverse=True))
    return Field(F.grid, _dft(F.data, F.grid, inverse=True))


def spatial_forward_slices(f: SpacetimeField) -> np.ndarray:
    """Space-only transform of every time slice; returns the raw (M,N,N,N) array."""
    return _dft(f.data, f.grid.spatial)


def spatial_inverse_slices(grid: SpacetimeGrid, spec_slices: np.ndarray) -> SpacetimeField:
    """Inverse space-only transform of per-time-slice spectra."""
    return SpacetimeField(grid, _dft(spec_slices, grid.spatial, inverse=True))


@lru_cache(maxsize=32)
def _reflection(shape: tuple) -> np.ndarray:
    """reflect's gather, read-only: the flat index of (-k) mod n along every
    axis of shape at each point k of an array of that shape."""
    index = np.arange(np.prod(shape)).reshape(shape)
    for axis, n in enumerate(shape):
        index = np.take(index, -np.arange(n) % n, axis=axis)
    return _read_only(index.ravel())


def reflect(a: np.ndarray, axes) -> np.ndarray:
    """a(-xi): the periodic reflection k -> (-k) mod n along each of `axes`.

    On the centered even lattice index k holds frequency j = k - n/2, and -j
    sits at (-k) mod n; so the Nyquist index 0 and the zero index n/2 map
    to themselves.  The axes must be consecutive and of one sign: one
    gather through a cached flat index map reflects them all.  Returns a
    new array.
    """
    lo, hi = min(axes) % a.ndim, max(axes) % a.ndim + 1
    index = _reflection(a.shape[lo:hi])
    flat = a.reshape(a.shape[:lo] + index.shape + a.shape[hi:])
    return np.take(flat, index, axis=lo).reshape(a.shape)


def conj_reflect(a: np.ndarray) -> np.ndarray:
    """conj a(-xi), reflected on the three spatial (last) axes."""
    out = reflect(a, (-3, -2, -1))
    return np.conjugate(out, out=out)


def hermitian_full(half: np.ndarray, mate: np.ndarray) -> np.ndarray:
    """The full spectrum, last three axes (N, N, N), of u_+ from the half
    spectra of the pair (u_+, u_-) of real data, u_- = conj u_+(-xi).

    half and mate hold the first N//2 + 1 entries of the last axis of u_+
    and u_-; each remaining entry of u_+ is conj u_-(-xi) of one mate holds.
    The spectrum F of a real array is its own mate: hermitian_full(F, F).
    """
    h = half.shape[-1]
    upper = reflect(mate[..., h - 2 : 0 : -1], (-3, -2))
    return np.concatenate((half, np.conjugate(upper, out=upper)), axis=-1)


def time_forward(grid: SpacetimeGrid, slices: np.ndarray) -> np.ndarray:
    """Time-direction transform of an (M, ...) stack, convention e^{-i t tau}."""
    return _dft(slices, time=grid)
