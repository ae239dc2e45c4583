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

MaskSpec, the pair-frequency mask that splits the lattice convolution and
the surface masses by region (geq/ll, the near/far P/Q split, shell against
shell), lives here; dyadic builds its named masks from it.  The time window
and its block of nonzero slices come from spaces, where its rules live.
Each windowed product has a block stage, _product_block or _symbol_block,
that forms its spatial spectra on that block alone: the public products
pad it onto the time axis and transform it in time through _time_padded,
and the estimate harness hands it to spaces._block_norms, on the half
lattice when _reverses finds the product conjugate-symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    SpacetimeGrid,
    SpacetimeSpectrum,
    Spectrum,
    _checkerboard,
    _dft,
    _dft_scale,
    _read_only,
    conj_reflect,
    reflect,
    time_forward,
)
from .propagator import EvolutionSpec, _free_slices_at
from .spaces import WindowSpec, _grid_window, _window_block

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
    "MaskSpec",
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


_MAX_REFINE = 3         # cell doublings surface_mass tries before it reports unconverged
LL_THRESHOLD = 0.5      # the 'much smaller' rule: |xi1| < LL_THRESHOLD * |xi2|

_RULES = ("one", "geq", "ll", "near", "far", "shell_ll")


@dataclass(frozen=True)
class MaskSpec:
    """A pair-frequency mask.

    The rule depends on the pair (xi1, xi2) only through the three moduli
    |xi1|, |xi2| and |xi1 + xi2|; select() is the one place it is written.
    Calling the mask with stacked (..., 3) arrays (xi1, xi2) evaluates it
    vectorized.  kernels.masked_convolution calls select() directly, and
    select() is also used by kernels.band_mass, so a surface mass is masked
    by the same rule as the lattice convolution.  dyadic.region_masks and
    dyadic.shell_mask build the masks and name them.
    """

    rule: str
    c1: float = 2.0
    sh_lo: float = 0.0
    sh_hi: float = np.inf

    def __post_init__(self):
        if self.rule not in _RULES:
            raise ParameterError(f"unknown mask rule {self.rule!r}")

    def select(self, n1, n2, n12) -> np.ndarray:
        """The mask as a function of |xi1|, |xi2| and |xi1 + xi2|."""
        if self.rule == "one":
            return np.ones(np.broadcast(n1, n2, n12).shape, dtype=bool)
        if self.rule == "geq":
            return n1 >= LL_THRESHOLD * n2
        if self.rule == "ll":
            return n1 < LL_THRESHOLD * n2
        if self.rule == "near":
            return n1 + n2 <= self.c1 * n12
        if self.rule == "far":
            return n1 + n2 > self.c1 * n12
        return (n1 > self.sh_lo) & (n1 <= self.sh_hi) & (n1 < LL_THRESHOLD * n2)

    def __call__(self, xi1, xi2) -> np.ndarray:
        xi1, xi2 = np.asarray(xi1), np.asarray(xi2)
        return self.select(
            np.linalg.norm(xi1, axis=-1),
            np.linalg.norm(xi2, axis=-1),
            np.linalg.norm(xi1 + xi2, axis=-1),
        )


def _check_mask(mask):
    if not isinstance(mask, MaskSpec):
        raise ParameterError(f"mask must be a MaskSpec, got {type(mask).__name__}")


def _default_box(xi_vec, rho: float, tau, sp: SignPair, h, mask, box_radius):
    """surface_mass's cylinder: its centre z_c on the axis xi/|xi| and its
    radius, box_radius if given.  A mask with a finite shell bound sh_hi
    keeps eta within sh_hi of the rho1 focus xi/2: z_c = xi/2 . xi/|xi|,
    default radius sh_hi + 2h.  Else z_c = 0, and ellipsoids, bounded by
    |eta| <= tau/2, have default radius tau/2 + 2h; hyperboloids have none."""
    shell = mask is not None and np.isfinite(mask.sh_hi)
    z_c = float(xi_vec @ (xi_vec / rho)) / 2.0 if shell else 0.0
    if box_radius is not None:
        return z_c, box_radius
    if shell:
        return z_c, mask.sh_hi + 2.0 * h
    if sp.elliptic:
        return z_c, abs(tau) / 2.0 + 2.0 * h
    raise ParameterError(
        "the hyperbolic surface is unbounded: pass box_radius or a shell-restricted mask"
    )


def surface_mass(
    xi_vec,
    tau: float,
    sp: SignPair,
    F,
    h: float,
    box_radius: float | None = None,
    tol: float = 0.01,
    n0: int = 48,
    mask=None,
) -> SurfaceMassResult:
    """Thickened-level-set estimate of the surface-measure integral
    int_{P(eta)=tau} dS/|grad P| F(rho1, rho2).

    F is a vectorized callable F(rho1, rho2), such as a PowerWeight.  A
    MaskSpec mask keeps the pairs (xi/2 - eta, xi/2 + eta) that its
    select() keeps in the lattice convolution.  The level set is a surface
    of rotation about the axis xi/|xi|, so the band sum runs over the
    (z, rho) half-plane about that axis.  The integral is truncated to the
    cylinder |z - z_c| <= R, rho <= R: z_c is 0, or |xi|/2 under a mask with
    a finite shell bound, and R is box_radius, or by default the radius
    _default_box gives.  The cells are refined (n -> 2n), at most
    _MAX_REFINE times, until the value is stable to the requested relative
    tolerance.  An empty level set returns value 0 with the empty flag set.
    """
    if h <= 0:
        raise ParameterError("band half-thickness h must be positive")
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
    z_c, box_radius = _default_box(xi_vec, rho, tau, sp, h, mask, box_radius)
    z_lo = z_c - box_radius
    width = 2.0 * box_radius

    n = n0
    prev = kernels.band_mass(rho, sp.first, sp.second, tau, h, z_lo, width, n, F, mask)
    for _ in range(_MAX_REFINE):
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
    free waves and their product are formed only where it is nonzero, as
    spatial spectra, by _product_block.
    """
    if u0.grid != g.spatial or v0.grid != g.spatial:
        raise GridMismatchError("data do not live on the spatial lattice")
    return _time_padded(g, *_product_block(u0, v0, sp, g, _grid_window(g, w)))


def _time_padded(g: SpacetimeGrid, keep, block) -> SpacetimeSpectrum:
    """The space-time spectrum of a block stage's (keep, block): the block
    of spatial spectra padded with zero slices onto the time axis and
    transformed in time."""
    slices = np.zeros(g.shape, dtype=np.complex128)
    if keep is not None:
        slices[keep] = block
    return SpacetimeSpectrum(g, time_forward(g, slices))


# lattice points of a group of slices in _product_block: 16 slices at N = 16
_GROUP_POINTS = 1 << 16


@lru_cache(maxsize=8)
def _reflection(n: int) -> np.ndarray:
    """The flat index of -xi at each point xi of the N^3 lattice (grid.reflect
    of the flat indices), read-only.  _real gathers by it: 2.5-3x faster
    than through grid.conj_reflect's rolls at N = 8-16."""
    return _read_only(reflect(np.arange(n**3).reshape(n, n, n), (0, 1, 2)).ravel())


def _real(a: Spectrum) -> bool:
    """Whether a is exactly the spectrum of real data: a(-xi) = conj a(xi)."""
    mirror = np.take(a.data, _reflection(a.grid.n))
    return np.array_equal(np.conj(mirror, out=mirror), a.data.ravel())


def _reverses(u0: Spectrum, v0: Spectrum, g: SpacetimeGrid, factor: np.ndarray, keep) -> bool:
    """Whether the product block of factor on keep is conjugate-symmetric:
    slice o - k is conj_reflect of slice o + k, o = g.origin_index, but for
    the factor each slice carries.  Free waves of real data have
    u(-t) = conj u(t) in x-space, so it holds when both data are real, the
    factor is real and keep is centred on o.  The tests are exact."""
    return (keep is not None and keep.start + keep.stop - 1 == 2 * g.origin_index
            and np.isrealobj(factor) and _real(u0) and _real(v0))


def _product_block(
    u0: Spectrum, v0: Spectrum, sp: SignPair, g: SpacetimeGrid, factor: np.ndarray,
) -> tuple:
    """The block stage of the free-wave product: (keep, block), keep the
    window block of factor and block, shape (K, N, N, N), the spatial
    spectra of factor(t) times the product of the two free waves on it.
    (None, None) when factor vanishes.

    The transforms are bare (grid._dft): the data are multiplied by the
    checkerboard S once, the free factors' S_x cancel in the product, the
    per-slice factor carries the scales (two inverse and one forward make
    one inverse), and the product takes one sign pass before its forward
    transform and one after.  The free slices, their inverses, the product
    and its transform are formed in groups of _GROUP_POINTS lattice points,
    each written into the block, so the block is the one array of its size
    alive.  Each slice is the one the full-lattice formula gives, bit for
    bit on the general path.

    The data's symmetries save transforms, each found by an exact test.
    Equal data at equal signs make one free wave, squared: the same bits.
    Equal real data at opposite signs make one too, times its conjugate,
    the second wave in x-space.  A block that _reverses forms its slices
    from t = 0 up alone, ceil(K/2) of them, with the scale but no factor;
    after the forward transform each slice, and its conj_reflect as the
    mirror slice at -t, takes its own factor.
    """
    keep = _window_block(factor)
    if keep is None:
        return None, None
    sg = g.spatial
    signs = _checkerboard(sg.n)
    reverse = _reverses(u0, v0, g, factor, keep)
    pairs = ((u0, sp.first), (v0, sp.second))
    if np.array_equal(u0.data, v0.data) and (sp.first == sp.second or _real(u0)):
        pairs = pairs[:1]
    data = [(Spectrum(sg, a.data * signs), EvolutionSpec("D", sign)) for a, sign in pairs]
    size = keep.stop - keep.start
    first = size // 2 if reverse else 0     # the block row of the first slice formed
    t, f = g.t_axis[keep][first:], factor[keep, None, None, None]
    scale = _dft_scale(sg, inverse=True)
    block = np.empty((size,) + sg.shape, dtype=np.complex128)
    step = max(1, _GROUP_POINTS // sg.n**3)
    for start in range(0, t.size, step):
        group = slice(start, start + step)
        uf, *vf = (_dft(_free_slices_at(a, e, t[group]), sg, inverse=True, bare=True)
                   for a, e in data)
        if vf:
            second = vf[0]
        else:   # one wave: itself at equal signs, its conjugate for real data
            second = uf if sp.first == sp.second else np.conj(uf)
        prod = np.multiply(uf, second, out=uf)
        if not reverse:
            prod *= f[group] * scale
            prod *= signs
            np.multiply(_dft(prod, sg, bare=True), signs, out=block[group])
            continue
        prod *= scale * signs
        spec = _dft(prod, sg, bare=True)
        spec *= signs
        rows = slice(first + start, first + start + len(spec))
        np.multiply(spec, f[rows], out=block[rows])
        skip = int(start == 0)      # t = 0 is its own mirror
        mirror = slice(size - rows.stop, size - rows.start - skip)
        np.multiply(conj_reflect(spec[skip:])[::-1], f[mirror], out=block[mirror])
    return keep, block


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
    mask is a MaskSpec.  As there, the free slices and their convolution
    are formed on the window block alone, by _symbol_block, and padded and
    transformed in time by the same helper.
    """
    if u0.grid != g.spatial or v0.grid != g.spatial:
        raise GridMismatchError("data do not live on the spatial lattice")
    return _time_padded(g, *_symbol_block(u0, v0, sp, mask, g, _grid_window(g, w)))


def _symbol_block(
    u0: Spectrum, v0: Spectrum, sp: SignPair, mask, g: SpacetimeGrid, factor: np.ndarray,
) -> tuple:
    """The block stage of bilinear_symbol_product: (keep, block), keep the
    window block of factor and block, shape (K, N, N, N), factor(t) times
    the masked convolution of the two free-wave spectra on it.  (None, None)
    when factor vanishes.  Checks the mask and the convolution budget."""
    _check_mask(mask)
    sg = g.spatial
    if sg.n > CONV_BUDGET_N:
        raise BudgetError(
            f"direct convolution budget allows N <= {CONV_BUDGET_N}, got N = {sg.n}"
        )
    keep = _window_block(factor)
    if keep is None:
        return None, None
    us, vs = (_free_slices_at(a, EvolutionSpec("D", sign), g.t_axis[keep])
              for a, sign in ((u0, sp.first), (v0, sp.second)))
    conv = kernels.masked_convolution(us, vs, sg.xi_axis, mask)
    conv *= (2.0 * np.pi) ** -3 * sg.dxi**3
    conv *= factor[keep, None, None, None]
    return keep, conv
