"""Products of free half-waves, their space-time transforms, and the
collapse of the interaction-surface integrals to 1-D power-law integrals.

For free waves with signs (s1, s2) the space-time transform of the product
lives on the surface s1*|xi/2 - eta| + s2*|xi/2 + eta| = tau, an ellipsoid
of rotation for equal signs and a hyperboloid for opposite signs.  The
surface integral with a weight depending only on the two focal distances
(rho1, rho2) collapses, after the substitution x = (rho1 - rho2)/|xi|, to

    const * |xi|^(p+q) * integral over the region of |a+x|^p |a-x|^q dx,

with a = tau/|xi|, p = 1 - s1*r, q = 1 - s2*r.  The three regions are the
elliptic interval [-1, 1], the near-hyperbolic interval [1, c1], and the
far-hyperbolic tail [c1, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import kernels
from .errors import (
    BudgetError,
    DivergentIntegralError,
    GridMismatchError,
    ParameterError,
)
from .grid import (
    SpacetimeField,
    SpacetimeGrid,
    SpacetimeSpectrum,
    Spectrum,
    _spatial_dft,
    forward_transform,
    time_forward,
)
from .propagator import EvolutionSpec, _free_slices_at, free_slices
from .spaces import WindowSpec, _grid_window, window_values

__all__ = [
    "ReductionSpec",
    "SignPair",
    "PowerWeight",
    "ReductionResult",
    "SurfaceMassResult",
    "reduction_integral",
    "product_transform_direct",
    "surface_mass",
    "bilinear_symbol_product",
    "CONV_BUDGET_N",
]

CONV_BUDGET_N = 24

_REGIONS = ("elliptic", "hyperbolic-near", "hyperbolic-far")


@dataclass(frozen=True)
class ReductionSpec:
    """One 1-D reduction integral: region, ratio a = tau/|xi|, powers p, q."""

    a: float
    p: float
    q: float
    region: str
    c1: float = 2.0

    def __post_init__(self):
        if self.region not in _REGIONS:
            raise ParameterError(f"unknown region {self.region!r}")
        if self.region != "hyperbolic-far" and (self.p <= -1.0 or self.q <= -1.0):
            # the singular points x = -a, +a can touch the bounded regions;
            # on [c1, inf) they cannot, so only the tail condition applies
            raise ParameterError(
                f"need p > -1 and q > -1 for integrable singularities, got p={self.p}, q={self.q}"
            )
        if self.c1 <= 1.0:
            raise ParameterError(f"region constant c1 must exceed 1, got {self.c1}")
        if self.region == "elliptic" and self.a < 1.0:
            raise ParameterError(f"elliptic region requires a >= 1, got a={self.a}")
        if self.region != "elliptic" and abs(self.a) > 1.0:
            raise ParameterError(
                f"hyperbolic regions require |a| <= 1, got a={self.a}"
            )
        if self.region == "hyperbolic-far" and self.p + self.q >= -1.0:
            raise DivergentIntegralError(
                f"far integral diverges at infinity: p+q = {self.p + self.q} >= -1"
            )


@dataclass(frozen=True)
class SignPair:
    """Signs of the two free waves; equal signs give the elliptic surface."""

    first: int = +1
    second: int = +1

    def __post_init__(self):
        if self.first not in (+1, -1) or self.second not in (+1, -1):
            raise ParameterError("signs must be +1 or -1")

    @property
    def elliptic(self) -> bool:
        return self.first == self.second


# QUADPACK tolerances for the reduction integrals: relative error only
_EPSABS = 0.0
_EPSREL = 1e-13


@dataclass(frozen=True)
class ReductionResult:
    """A reduction integral with QUADPACK's error estimate; converged means
    ier == 0 and a finite value."""

    value: float
    abserr: float
    converged: bool


def _qaws(f, lo: float, hi: float, alpha: float, beta: float) -> ReductionResult:
    """Integral of (x-lo)^alpha (hi-x)^beta f(x) over [lo, hi] (QUADPACK QAWS)."""
    out = quad(f, lo, hi, weight="alg", wvar=(alpha, beta),
               epsabs=_EPSABS, epsrel=_EPSREL, full_output=1)
    # quad appends a message to (value, abserr, infodict) exactly when ier != 0
    value, abserr = out[:2]
    return ReductionResult(value, abserr, len(out) == 3 and math.isfinite(value))


def _power_product(a: float, p: float, q: float, lo: float, hi: float) -> ReductionResult:
    """Integral of |a+x|^p |a-x|^q over [lo, hi], whose zeros -a, a lie
    outside (lo, hi): a factor that vanishes at an end is the algebraic weight
    there, the others are f."""
    alpha = p * (lo == -a) + q * (lo == a)
    beta = p * (hi == -a) + q * (hi == a)
    pf = 0.0 if -a in (lo, hi) else p
    qf = 0.0 if a in (lo, hi) else q
    return _qaws(lambda x: abs(a + x) ** pf * abs(a - x) ** qf, lo, hi, alpha, beta)


def _far_integral(a: float, p: float, q: float, c1: float) -> ReductionResult:
    """Tail integral over [c1, inf) via x = c1/t, t in (0, 1]: the integrand
    is t^-(p+q+2) times a factor that is smooth on [0, 1] since |a| < c1."""

    def f(t):
        return c1 ** (p + q + 1.0) * abs(1.0 + a * t / c1) ** p * abs(1.0 - a * t / c1) ** q

    return _qaws(f, 0.0, 1.0, -(p + q + 2.0), 0.0)


def reduction_integral(spec: ReductionSpec) -> ReductionResult:
    """The region integral of |a+x|^p |a-x|^q dx with its error estimate."""
    a, p, q = spec.a, spec.p, spec.q
    if spec.region == "elliptic":
        return _power_product(a, p, q, -1.0, 1.0)
    if spec.region == "hyperbolic-near":
        return _power_product(a, p, q, 1.0, spec.c1)
    return _far_integral(a, p, q, spec.c1)


@dataclass(frozen=True)
class PowerWeight:
    """The surface weight rho1^e1 * rho2^e2 as a callable on arrays (rho1, rho2)."""

    e1: float = 0.0
    e2: float = 0.0

    def __call__(self, r1, r2):
        return r1**self.e1 * r2**self.e2


@dataclass(frozen=True)
class SurfaceMassResult:
    value: float
    empty: bool = False
    converged: bool = True
    n_final: int = 0


def _check_mask(mask):
    from .dyadic import MaskSpec  # dyadic imports this module

    if not isinstance(mask, MaskSpec):
        raise ParameterError(f"mask must be a MaskSpec, got {type(mask).__name__}")


def _default_box(xi_vec, tau, sp: SignPair, h, mask):
    """Truncation centre, on the xi axis, and radius for the thickened
    surface: a mask with a finite shell bound sh_hi keeps eta within sh_hi
    of the rho1 focus; ellipsoids are bounded by |eta| <= tau/2."""
    xi_vec = np.asarray(xi_vec, dtype=float)
    if mask is not None and np.isfinite(mask.sh_hi):
        center = xi_vec / 2.0
        radius = mask.sh_hi + 2.0 * h
    elif sp.elliptic:
        center = np.zeros(3)
        radius = abs(tau) / 2.0 + 2.0 * h
    else:
        raise ParameterError(
            "the hyperbolic surface is unbounded: pass box_center/box_radius "
            "or a shell-restricted mask"
        )
    return center, radius


def surface_mass(
    xi_vec,
    tau: float,
    sp: SignPair,
    F,
    h: float,
    box_center=None,
    box_radius: float | None = None,
    tol: float = 0.01,
    n0: int = 48,
    max_refine: int = 3,
    mask=None,
) -> SurfaceMassResult:
    """Thickened-level-set estimate of the surface-measure integral
    int_{P(eta)=tau} dS/|grad P| F(rho1, rho2).

    F is a vectorized callable F(rho1, rho2), such as a PowerWeight.  A
    dyadic.MaskSpec mask keeps the pairs (xi/2 - eta, xi/2 + eta) that its
    select() keeps in the lattice convolution; a finite mask.sh_hi also sets
    the default box.  The level set is a surface of rotation about the axis
    xi/|xi|, so the band sum runs over the (z, rho) half-plane about that
    axis.  The integral is truncated to the cylinder |z - z_c| <= R,
    rho <= R, where z_c is box_center projected on the axis and R is
    box_radius: the cylinder inscribed in the cube of side 2R about
    box_center.  box_center must lie on the axis and needs a box_radius; a
    box_radius alone centres the cylinder at the origin, and with neither
    the default box is used.  The cells are refined (n -> 2n) until the
    value is stable to the requested relative tolerance.  An empty level
    set returns value 0 with the empty flag set.
    """
    if h <= 0:
        raise ParameterError("band half-thickness h must be positive")
    if box_center is not None and box_radius is None:
        raise ParameterError("box_center needs a box_radius")
    if mask is not None:
        _check_mask(mask)
    xi_vec = np.asarray(xi_vec, dtype=float)
    rho = float(np.linalg.norm(xi_vec))
    if sp.elliptic:
        # surface tau = sign*(rho1 + rho2) needs sign*tau > |xi| > 0
        if rho == 0.0 or sp.first * tau <= rho:
            return SurfaceMassResult(0.0, empty=True)
    else:
        if rho == 0.0 or abs(tau) >= rho:
            return SurfaceMassResult(0.0, empty=True)
    if box_radius is None:
        box_center, box_radius = _default_box(xi_vec, tau, sp, h, mask)
    box_center = np.zeros(3) if box_center is None else np.asarray(box_center, float)
    axis = xi_vec / rho
    z_c = float(box_center @ axis)
    if np.linalg.norm(box_center - z_c * axis) > 1e-12 * max(abs(z_c), box_radius):
        raise ParameterError("box_center must lie on the axis xi/|xi|")
    z_lo = z_c - box_radius
    width = 2.0 * box_radius

    n = n0
    prev = kernels.band_mass(rho, sp.first, sp.second, tau, h, z_lo, width, n, F, mask)
    for _ in range(max_refine):
        n *= 2
        cur = kernels.band_mass(rho, sp.first, sp.second, tau, h, z_lo, width, n, F, mask)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return SurfaceMassResult(cur, converged=True, n_final=n)
        prev = cur
    return SurfaceMassResult(prev, converged=False, n_final=n)


def product_transform_direct(
    u0: Spectrum,
    v0: Spectrum,
    sp: SignPair,
    g: SpacetimeGrid,
    w: WindowSpec,
) -> SpacetimeSpectrum:
    """Space-time transform of the windowed product of two free waves.

    The time slices on which the window vanishes are left exact zeros: the
    free waves and their product are formed only where it is nonzero.
    """
    if u0.grid != g.spatial or v0.grid != g.spatial:
        raise GridMismatchError("data do not live on the spatial lattice")
    return _windowed_product(u0, v0, sp, g, _grid_window(g, w))


def _windowed_product(
    u0: Spectrum, v0: Spectrum, sp: SignPair, g: SpacetimeGrid, factor: np.ndarray
) -> SpacetimeSpectrum:
    """Space-time transform of factor(t) times the product of two free waves.

    The free slices, their spatial inverses and the product are formed from
    the first to the last time slice on which factor is nonzero; the other
    slices are exact zeros, which is what factor makes of them.  Each formed
    slice is the one the full-lattice formula gives.
    """
    out = np.zeros(g.shape, dtype=np.complex128)
    nonzero = np.flatnonzero(factor)
    if nonzero.size:
        keep = slice(nonzero[0], nonzero[-1] + 1)
        uf, vf = (
            _spatial_dft(_free_slices_at(a, EvolutionSpec("D", sign), g.t_axis[keep]),
                         (1, 2, 3), g.spatial, inverse=True)
            for a, sign in ((u0, sp.first), (v0, sp.second))
        )
        prod = out[keep]
        np.multiply(uf, vf, out=prod)
        prod *= factor[keep, None, None, None]
    return forward_transform(SpacetimeField(g, out))


def bilinear_symbol_product(
    u0: Spectrum,
    v0: Spectrum,
    sp: SignPair,
    mask,
    g: SpacetimeGrid,
    w: WindowSpec,
) -> SpacetimeSpectrum:
    """Masked discrete convolution of the two free-wave spectra, per time
    slice, then windowed and transformed in time.

    With the trivial mask this equals product_transform_direct (the product
    in configuration space is exactly the periodic lattice convolution).
    mask is a dyadic.MaskSpec.
    """
    _check_mask(mask)
    sg = g.spatial
    if u0.grid != sg or v0.grid != sg:
        raise GridMismatchError("data do not live on the spatial lattice")
    if sg.n > CONV_BUDGET_N:
        raise BudgetError(
            f"direct convolution budget allows N <= {CONV_BUDGET_N}, got N = {sg.n}"
        )
    us = free_slices(u0, g, EvolutionSpec("D", sp.first))
    vs = free_slices(v0, g, EvolutionSpec("D", sp.second))
    conv = kernels.masked_convolution(us, vs, sg.xi_axis, mask)
    conv *= (2.0 * np.pi) ** -3 * sg.dxi**3
    wvals = window_values(w, g.t_axis)
    slices = conv * wvals[:, None, None, None]
    return SpacetimeSpectrum(g, time_forward(g, slices))

