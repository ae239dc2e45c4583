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
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    BudgetError,
    DivergentIntegralError,
    GridMismatchError,
    ParameterError,
)
from .grid import (
    SpacetimeGrid,
    SpacetimeSpectrum,
    Spectrum,
    forward_transform,
    time_forward,
)
from .propagator import EvolutionSpec, free_slices, free_spacetime
from .quadrature import tanh_sinh
from .spaces import WindowSpec, apply_window, window_values

__all__ = [
    "ReductionSpec",
    "SignPair",
    "PowerWeight",
    "SurfaceMassResult",
    "reduction_integral",
    "far_tail_mass",
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
    meta: dict = field(default_factory=dict, compare=False)

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


def _power_product(a: float, p: float, q: float, lo: float, hi: float) -> float:
    """Integral of |a+x|^p |a-x|^q over [lo, hi] with stable endpoint handling."""

    def integrand(x, d_lo, d_hi):
        # |x + a|: distance to the zero at x = -a
        if lo == -a:
            s1 = d_lo
        elif hi == -a:
            s1 = d_hi
        else:
            s1 = abs(x + a)
        # |a - x|: zero at x = +a
        if lo == a:
            s2 = d_lo
        elif hi == a:
            s2 = d_hi
        else:
            s2 = abs(a - x)
        if (s1 == 0.0 and p != 0.0) or (s2 == 0.0 and q != 0.0):
            return 0.0
        val = 1.0
        if p != 0.0:
            val *= s1**p
        if q != 0.0:
            val *= s2**q
        return val

    return tanh_sinh(integrand, lo, hi)


def _split_points(a: float, lo: float, hi: float) -> list[float]:
    pts = [lo]
    for s in sorted({-a, a}):
        if lo < s < hi:
            pts.append(s)
    pts.append(hi)
    return pts


def _far_integral(a: float, p: float, q: float, c1: float) -> float:
    """Tail integral over [c1, inf) via x = c1/t, t in (0, 1]."""
    amp = p + q + 2.0  # endpoint exponent: integrand ~ t^(-amp) at t -> 0

    def integrand(t, d_lo, d_hi):
        tt = d_lo  # stable distance to t = 0
        if tt == 0.0:
            return 0.0
        base = c1 ** (p + q + 1.0) * tt ** (-amp)
        val = base
        if p != 0.0:
            val *= abs(1.0 + a * tt / c1) ** p
        if q != 0.0:
            val *= abs(1.0 - a * tt / c1) ** q
        return val

    return tanh_sinh(integrand, 0.0, 1.0)


def reduction_integral(spec: ReductionSpec) -> float:
    """Value of the region integral of |a+x|^p |a-x|^q dx."""
    a, p, q = spec.a, spec.p, spec.q
    if spec.region == "elliptic":
        lo, hi = -1.0, 1.0
    elif spec.region == "hyperbolic-near":
        lo, hi = 1.0, spec.c1
    else:
        return _far_integral(a, p, q, spec.c1)
    total = 0.0
    pts = _split_points(a, lo, hi)
    for left, right in zip(pts[:-1], pts[1:]):
        total += _power_product(a, p, q, left, right)
    return total


def far_tail_mass(rho: float, tau: float, p: float, q: float, c1: float = 2.0) -> float:
    """Unscaled far-region integral of |tau + rho*x|^p |tau - rho*x|^q over [c1, inf).

    Used to measure the |xi|-scaling exponent 2 - (s1+s2)*r without pulling
    the prefactor out analytically.
    """
    if p + q >= -1.0:
        raise DivergentIntegralError("far tail diverges: p + q >= -1")
    return rho ** (p + q) * _far_integral(tau / rho, p, q, c1) * rho


@dataclass(frozen=True)
class PowerWeight:
    """Surface weight rho1^e1 * rho2^e2, optionally shell-restricted in rho1."""

    e1: float = 0.0
    e2: float = 0.0
    shell: tuple[float, float] | None = None
    require_ll: bool = False


@dataclass(frozen=True)
class SurfaceMassResult:
    value: float
    empty: bool = False
    converged: bool = True
    n_final: int = 0


def _default_box(xi_vec, tau, sp: SignPair, h, weight):
    """Bounding box for the thickened surface: ellipsoids are bounded by
    |eta| <= tau/2; shell-restricted weights bound eta near the rho1 focus."""
    xi_vec = np.asarray(xi_vec, dtype=float)
    if isinstance(weight, PowerWeight) and weight.shell is not None:
        center = xi_vec / 2.0
        radius = weight.shell[1] + 2.0 * h
    elif sp.elliptic:
        center = np.zeros(3)
        radius = abs(tau) / 2.0 + 2.0 * h
    else:
        raise ParameterError(
            "the hyperbolic surface is unbounded: pass box_center/box_radius "
            "or a shell-restricted weight"
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
) -> SurfaceMassResult:
    """Thickened-level-set estimate of the surface-measure integral
    int_{P(eta)=tau} dS/|grad P| F(rho1, rho2).

    F is either a PowerWeight, whose power law and shell conditions the band
    sum evaluates itself, or a vectorized callable F(rho1, rho2).  The eta
    box is refined (n -> 2n) until the value is stable to the requested
    relative tolerance.  An empty level set returns
    value 0 with the empty flag set.
    """
    if h <= 0:
        raise ParameterError("band half-thickness h must be positive")
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
        box_center, box_radius = _default_box(xi_vec, tau, sp, h, F)
    box_center = np.zeros(3) if box_center is None else np.asarray(box_center, float)
    lo = box_center - box_radius
    width = 2.0 * box_radius

    kw = {}
    if isinstance(F, PowerWeight):
        kw.update(e1=F.e1, e2=F.e2, require_ll=F.require_ll)
        if F.shell is not None:
            kw.update(sh_lo=F.shell[0], sh_hi=F.shell[1])
    elif callable(F):
        kw.update(func=F)
    else:
        raise ParameterError("F must be a PowerWeight or a callable F(rho1, rho2)")

    n = n0
    prev = kernels.band_mass(xi_vec, sp.first, sp.second, tau, h, lo, width, n, **kw)
    for _ in range(max_refine):
        n *= 2
        cur = kernels.band_mass(xi_vec, sp.first, sp.second, tau, h, lo, width, n, **kw)
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
    """Space-time transform of the windowed product of two free waves."""
    if u0.grid != g.spatial or v0.grid != g.spatial:
        raise GridMismatchError("data do not live on the spatial lattice")
    uf = free_spacetime(u0, g, EvolutionSpec("D", sp.first))
    vf = free_spacetime(v0, g, EvolutionSpec("D", sp.second))
    prod = type(uf)(g, uf.data * vf.data)
    windowed = apply_window(prod, w)
    return forward_transform(windowed)


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
    from .dyadic import MaskSpec  # dyadic imports this module

    if not isinstance(mask, MaskSpec):
        raise ParameterError(f"mask must be a MaskSpec, got {type(mask).__name__}")
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

