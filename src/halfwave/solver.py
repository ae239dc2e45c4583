"""Pseudospectral Picard solver for the quadratic wave equation.

The second-order problem Box u = B_k(u, u) is solved in its Galerkin form
Box u = mask B_k(u, u), mask the 2/3 rule, rewritten as a first-order
system for u_pm = u +- i J^{-1} u_t, which the iteration solves with the
exponential integrator.  One tabled kernel (_bilinear_spec) forms
mask B_k(u, u), u = w/2 for w = u_+ + u_-, from dealiased factors; the
Picard loop, rhs_eval and the residual audit all read it, so the audit
checks the equation the loop solved.  With J = <xi> the rewrite reads
(d_t^2 + J^2) u = mask B + u, so the forcing carries the linear term
u = w/2 besides mask B.  The iteration takes only mask B (and a source)
from the previous iterate and solves the linear term slice by slice inside
the trapezoid sweep, so its contraction factors measure the nonlinearity.
The loop runs on the core |t| <= delta alone, u past each end of it is the
J-flow of one edge datum, and b adds only the X^{s,b} diagnostics.
The iterates are kept as spatial spectral slices, shape (M, N, N, N), and
configuration space is visited only for the pointwise product.  Real data
have u_- = conj u_+(-xi) at every iterate, so the loop and the solve run
on the half spectra of both components, last axis N//2 + 1.  Correctness
is judged convention-free through the Box residual, audited where the
whole d_t^2 stencil lies in |t| <= delta, and through contraction
diagnostics.  Every norm comes from spaces: the solver passes slices and
weights and takes norms back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import (
    SpacetimeField,
    SpacetimeGrid,
    SpatialGrid,
    Spectrum,
    _checkerboard,
    _dft,
    _dft_scale,
    _read_only,
    _signs,
    conj_reflect,
    hermitian_full,
    spatial_forward_slices,
    time_forward,
)
from .propagator import EvolutionSpec, _duhamel_step, _free_slices_at
from .spaces import (
    NormParams,
    WindowSpec,
    _check_r,
    _core_slices,
    _lattice_norms,
    _slice_norms,
    _slice_weights,
    _window_block,
    _xsb_weights,
    sobolev_hat_norm,
    window_values,
)

__all__ = [
    "CauchyData",
    "NonlinearitySpec",
    "SolveConfig",
    "to_first_order",
    "rhs_eval",
    "picard_iterate",
    "PicardResult",
    "solve_local",
    "SolveReport",
    "flow_lipschitz_probe",
    "select_delta",
]

_DERIVS = ("t", "x1", "x2", "x3")


@dataclass(frozen=True)
class CauchyData:
    """Position and velocity spectra, both finite, plus the intended data-space exponents."""

    u0: Spectrum
    u1: Spectrum
    r: float = 2.0
    s: float = 1.0

    def __post_init__(self):
        if self.u0.grid != self.u1.grid:
            raise GridMismatchError("position and velocity data live on different lattices")
        if not math.isfinite(self.s):
            raise ParameterError(f"the data regularity s must be finite, got {self.s}")
        for name, x in (("position data u0", self.u0), ("velocity data u1", self.u1)):
            if not np.isfinite(x.data).all():
                raise ParameterError(f"the {name} must be finite")

    def norms(self) -> tuple[float, float]:
        return (
            sobolev_hat_norm(self.u0, self.r, self.s),
            sobolev_hat_norm(self.u1, self.r, self.s - 1.0),
        )


@dataclass(frozen=True)
class NonlinearitySpec:
    """B_1(u,v) = d(uv) or B_2(u,v) = du * dv with d one of d_t, d_x1..d_x3."""

    k: int = 1
    derivative: str = "x1"

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ParameterError(f"nonlinearity order k must be 1 or 2, got {self.k}")
        if self.derivative not in _DERIVS:
            raise ParameterError(f"derivative must be one of {_DERIVS}, got {self.derivative!r}")


@dataclass(frozen=True)
class SolveConfig:
    """Local solve parameters: time radius, iteration budget, norms.

    A config exists for every delta in (0, 0.95 T], T the time half-width;
    default_config is a second name for this class.  The Picard loop runs on
    the core [-delta, delta] alone, and u past each end of the core is the
    J-flow of one edge datum.  b is the modulation exponent of the
    X^r_{s,b} diagnostics, the windowed restricted distances and the
    Z-norm; None forms neither, and a loop refuses b <= 1/r.  Convergence,
    divergence and select_delta read the sup distance over the core, which
    b does not change; b enters one decision, as a guard: a non-finite
    X-distance ends the loop nonfinite."""

    grid: SpacetimeGrid
    delta: float
    max_iter: int = 12
    tol: float = 1e-10
    b: float | None = None

    def __post_init__(self):
        # written so that delta = NaN fails it too
        if not 0 < self.delta <= self.largest_delta(self.grid):
            raise ParameterError("delta must be positive" if self.delta <= 0 else
                                 f"delta = {self.delta} does not fit the time box "
                                 f"(half_time {self.grid.half_time})")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be at least 1, got {self.max_iter}")

    @staticmethod
    def largest_delta(grid: SpacetimeGrid) -> float:
        """0.95 T: the largest delta, and the widest window support, that fit the time box."""
        return 0.95 * grid.half_time

    @property
    def window(self) -> WindowSpec:
        """The cutoff of the X^{s,b} diagnostics: 1 on [-delta, delta], vanishing
        smoothly by min(2 delta, 0.95 T), fitting the time box, since a sharp
        cutoff has no finite X^{s,b} norm for b > 1/r."""
        support = min(2.0 * self.delta, self.largest_delta(self.grid))
        flat = min(1.0, max(0.5, self.delta / support))
        return WindowSpec(support=support, flat_fraction=flat)


default_config = SolveConfig


def to_first_order(d: CauchyData) -> tuple[Spectrum, Spectrum]:
    """f_pm = u0 +- i J^{-1} u1 on the spatial lattice."""
    sg = d.u0.grid
    shift = 1j * d.u1.data / sg.bracket
    return Spectrum(sg, d.u0.data + shift), Spectrum(sg, d.u0.data - shift)


@lru_cache(maxsize=32)
def _product_tables(sg: SpatialGrid, h: int, ns: NonlinearitySpec) -> tuple:
    """(w_in, d_in, out, sign): the factors of B_k's tabled product, read-only.

    w_in multiplies w and d_in multiplies u_+ - u_- before their bare
    inverse transforms, out multiplies the bare forward transform of the
    product, and sign is the x-space sign S_x of the N^3 lattice.  On the
    spectral side they fold the transform signs S, the transform scales,
    the 2/3 mask and the derivative symbol: i xi_d, or -i<xi> for d_t w
    (-2i<xi> for k = 1, with the 2 of d_t(w^2) = 2 w d_t w).  The mask cuts
    both factors and the output, and out carries the 1/4 of B(u, u) =
    B(w, w)/4, u = w/2: this is the one place the solver reads the mask and
    the 1/4.  Both are 0/1 or powers of two, so folding them changes no bit
    of the values kept.  For d(w^2) with a spatial derivative the symbol
    goes into out.  The x-space values of the factors are those of the
    centered transforms times S_x, so a product of two carries S_x^2 = 1,
    and one sign pass puts it back into S_x form for the forward transform.  w_in is None where B
    reads no w, d_in where it reads no d_t w.  All are cut to the first h
    entries of the last axis.
    """
    mask = sg.dealias_mask[..., :h]
    signs = _checkerboard(sg.n)[..., :h]
    inverse = mask * signs * _dft_scale(sg, inverse=True)
    forward = mask * signs * (_dft_scale(sg) / 4.0)
    w_in = d_in = None
    if ns.derivative == "t":
        d_in = (-2j if ns.k == 1 else -1j) * sg.bracket[..., :h] * inverse
    if ns.derivative != "t" or ns.k == 1:
        w_in = inverse
    if ns.derivative != "t":
        deriv = 1j * sg.xi_mesh()[_DERIVS.index(ns.derivative) - 1][..., :h]
        if ns.k == 1:
            forward = deriv * forward
        else:
            w_in = deriv * inverse
    return tuple(None if t is None else _read_only(t)
                 for t in (w_in, d_in, forward, _checkerboard(sg.n)))


def _bilinear_spec(sp: np.ndarray, sm: np.ndarray, ns: NonlinearitySpec,
                   g: SpacetimeGrid) -> np.ndarray:
    """Spectral slices of mask B_k(u, u) for u = w/2, w = sp + sm: the dealiased nonlinearity.

    The one product kernel (see _product_tables): each factor is one table
    multiply and one bare inverse transform, the product takes one x-space
    sign pass, and its bare forward transform one table multiply, which
    masks it and takes the 1/4 of u = w/2.  The factors are masked too.
    d_t w always comes from the evolution identity -iJ(u_+ - u_-), never
    from differencing.
    When sp and sm are the half spectra of real data (sm = conj R sp), w
    is real, and the product goes through the real transforms; the output
    is the half spectrum of mask B.  The slices may be any consecutive time
    slices.  Only the factors B reads are formed (no w for k = 2 with d_t),
    each in a fresh array; sp and sm are not changed.
    """
    sg = g.spatial
    w_in, d_in, table, sign = _product_tables(sg, sp.shape[-1], ns)
    factors = []
    if w_in is not None:
        x = sp + sm
        x *= w_in
        factors.append(_dft(x, sg, inverse=True, bare=True))
    if d_in is not None:
        x = sp - sm
        x *= d_in
        factors.append(_dft(x, sg, inverse=True, bare=True))
    p = factors[0]
    p *= factors[-1]
    p *= sign
    p = _dft(p, sg, bare=True)
    p *= table
    return p


def rhs_eval(
    sp: np.ndarray,
    sm: np.ndarray,
    ns: NonlinearitySpec,
    g: SpacetimeGrid,
    source: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """g_pm = -+ J^{-1} (mask B_k(u, u) + u + S) for u = w/2, w = u_+ + u_-.

    sp, sm, the source S and the returned pair are spatial spectral slices,
    shape (M, N, N, N) on g; only the pointwise product visits configuration
    space.  Spatial derivatives are spectral, and the product and its factors
    are 2/3-rule dealiased.  mask B comes from the product kernel, times the
    reciprocal 1/J the Picard loop weighs it with; the linear part
    (w/2 + S)/J is added to it.
    """
    for a in (sp, sm) if source is None else (sp, sm, source):
        if np.shape(a) != g.shape:
            raise GridMismatchError(
                f"rhs slices of shape {np.shape(a)} do not match the grid {g.shape}"
            )
    gm = _bilinear_spec(sp, sm, ns, g)
    gm *= 1.0 / g.spatial.bracket
    w = sp + sm
    w /= 2.0
    if source is not None:
        w += source
    w /= g.spatial.bracket
    gm += w
    return -gm, gm


_REAL_RTOL = 1e-14


def _hermitian_part(fp: Spectrum, fm: Spectrum, source: np.ndarray | None):
    """(fp, fm, source) projected onto real data, or None when the data are not real.

    Real Cauchy data have fm = conj R fp, R the reflection xi -> -xi, and a
    real source has slices S = conj R S.  Each relation is tested to
    _REAL_RTOL relative to the largest entry of its two sides; data that
    pass are projected onto it exactly, fp to (fp + conj R fm)/2, fm to
    conj R of that and S to (S + conj R S)/2.
    """
    def close(a, b):
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
        return bool(np.max(np.abs(a - b)) <= _REAL_RTOL * scale)

    rfm = conj_reflect(fm.data)
    if not close(fp.data, rfm):
        return None
    if source is not None:
        rs = conj_reflect(source)
        if not close(source, rs):
            return None
        source = (source + rs) / 2.0
    fp = Spectrum(fp.grid, (fp.data + rfm) / 2.0)
    return fp, Spectrum(fp.grid, conj_reflect(fp.data)), source


def _step_ratios(distances: list) -> list:
    """cur/prev of consecutive distances, 0 where prev is not positive."""
    return [cur / prev if prev > 0 else 0.0 for prev, cur in zip(distances, distances[1:])]


@dataclass
class PicardResult:
    """Final iterates as spatial spectral slices (sp, sm), plus diagnostics.

    sp and sm hold every time slice on the lattice the loop ran on: for real
    data (real_data, see picard_iterate) the half spectra, last axis
    N//2 + 1.  status says why the loop stopped: "converged" (a distance reached tol), "unconverged"
    (the budget ran out), "diverged" (three consecutive growing distances)
    or "nonfinite" (a non-finite distance or X-distance, see picard_iterate);
    converged and diverged are read from it, and the step ratios from the
    distances.  The loop iterates the nonlinearity alone, so rho_1 is, to
    leading order, proportional to the size of the data, and 0 when B = 0.
    restricted_distances holds the windowed X-distances when b is set.
    """

    grid: SpacetimeGrid
    sp: np.ndarray
    sm: np.ndarray
    distances: list = dc_field(default_factory=list)
    restricted_distances: list = dc_field(default_factory=list)
    iterations: int = 0
    real_data: bool = False
    status: str = "unconverged"

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def diverged(self) -> bool:
        return self.status in ("diverged", "nonfinite")

    @property
    def rhos(self) -> list:
        return _step_ratios(self.distances)

    @property
    def restricted_rhos(self) -> list:
        return _step_ratios(self.restricted_distances)


def _linear_sweep(
    f: np.ndarray,
    free: tuple,
    steps: tuple,
    g: SpacetimeGrid,
    m0: int,
) -> tuple:
    """Duhamel parts (d_+, d_-) of the iterate whose linear term is solved.

    The iterate u_pm = free_pm + d_pm solves d_pm = Duhamel(g_pm) for
    g_- = f + c w/2 = -g_+, w = u_+ + u_-, c = 1/J, in duhamel's trapezoid
    rule, swept forward and backward from t = 0.  A step from slice m to k
    takes the explicit parts a_+ = S_+ (d_+[m] + h g_+[m]) - h f[k] and
    a_- = S_- (d_-[m] + h g_-[m]) + h f[k], with S_pm duhamel's step and
    h = -i dt/2 forward, +i dt/2 backward.  The implicit terms -+ h c w[k]/2
    cancel in w, so w[k] = free_+[k] + free_-[k] + a_+ + a_- needs no solve,
    and d_pm[k] = a_pm -+ h c w[k]/2.  Slice k reads the arguments between
    t = 0 and slice k only.

    f, the free slices free = (free_+, free_-) and d_pm are consecutive
    slices, slice m0 at t = 0; steps holds (S_+, S_-) forward, then back.
    c/2 is one table, formed once per call; free_+[k] + free_-[k] and h f[k]
    are formed slice by slice, so the sweep holds no block of them.  Past
    the last slice each way the loop solves no equation (f = c = 0), so the
    step is S_pm (d_pm[e] -+ h g_-[e]) from the end slice e: these seeds,
    forward then back, are returned with (d_+, d_-), which the sweep makes:
    every slice of them but m0, which is zeroed, is written before it is read.
    """
    n = len(f)
    dp, dm = (np.empty(f.shape, dtype=np.complex128) for _ in range(2))
    free_p, free_m = free
    # c/2 complex, as a factor of complex products
    half_c = (1.0 / g.spatial.bracket[..., :f.shape[-1]] / 2.0).astype(np.complex128)
    dp[m0] = dm[m0] = 0.0
    # g_- at t = 0, where d_pm = 0
    g0 = half_c * (free_p[m0] + free_m[m0])
    g0 += f[m0]
    seeds = []
    forward = range(m0 + 1, n), n - 1, -1, -0.5j * g.dt, steps[0]
    backward = range(m0 - 1, -1, -1), 0, +1, 0.5j * g.dt, steps[1]
    for ks, end, prev, h, (step_p, step_m) in (forward, backward):
        gm = g0
        for k in ks:
            # complex products round differently with their factors swapped,
            # so every product keeps duhamel's order: step, h or c first
            hg = h * gm
            hf = h * f[k]
            a_p = dp[k + prev] - hg
            np.multiply(step_p, a_p, out=a_p)
            a_p -= hf
            a_m = dm[k + prev] + hg
            np.multiply(step_m, a_m, out=a_m)
            a_m += hf
            cw = free_p[k] + free_m[k]
            cw += a_p
            cw += a_m
            np.multiply(half_c, cw, out=cw)         # c w/2
            gm = f[k] + cw
            np.multiply(h, cw, out=cw)
            np.subtract(a_p, cw, out=dp[k])
            np.add(a_m, cw, out=dm[k])
        hg = h * gm
        seeds.append((dp[end] - hg, dm[end] + hg))
    return dp, dm, seeds


def _flow_past(out, data, seeds, e: EvolutionSpec, g: SpacetimeGrid, blk: slice,
               span: slice) -> None:
    """Write one component of the iterate into out's slices in span past each
    end of blk, forward then back, as seeds holds that end's _linear_sweep
    seed.  Off the block f = c = 0, so past the end slice at t_e it is the
    J-flow under e of one edge datum, data + e^{+-i t_e J} seed for u_+-: one
    phase gather per end.  data and seeds may hold the first entries of the
    last axis alone; data None is zero."""
    sg, t = g.spatial, g.t_axis
    ends = (slice(blk.stop, span.stop), blk.stop - 1), (slice(span.start, blk.start), blk.start)
    for (tail, end), seed in zip(ends, seeds):
        datum = _free_slices_at(sg, seed, e, -t[end:end + 1])[0]
        if data is not None:
            datum += data
        out[tail] = _free_slices_at(sg, datum, e, t[tail])


def _extend(u: np.ndarray, data, e: EvolutionSpec, g: SpacetimeGrid, blk: slice,
            seeds) -> np.ndarray:
    """One component of the iterate on every slice from its block: u on the
    block, bit for bit, and past it the J-flow of each edge datum (see
    _flow_past)."""
    out = np.empty((g.m,) + u.shape[1:], dtype=np.complex128)
    out[blk] = u
    _flow_past(out, data, seeds, e, g, blk, slice(0, g.m))
    return out


class _PicardState:
    """The Picard loop as a state, in three steps; select_delta's trials
    and picard_iterate drive it.

    The constructor is the set-up: it checks r, and a finite b > 1/r when
    the config sets b, checks the data against the grid, projects real data
    (see _hermitian_part), finds the core's block of slices, and builds the
    loop invariants, the free slices on the block and, when b is set, the
    X-weights and the X-distance's window.  advance runs iterations and may
    be called again to resume them; the state carries the iterates, the
    distances (in result), the growth count and the seeds of the last
    sweep, which fix the iterate past the block (see _flow_past).  finish
    extends the last iterate to every slice.

    The state holds loop values alone, so a trial parked between calls holds
    no work array: each lives within one iteration of advance (see there).
    """

    def __init__(self, fp, fm, ns, cfg, r, s, source):
        _check_r(r)
        if cfg.b is not None and not 1.0 / r < cfg.b < math.inf:
            raise ParameterError(f"X^r_{{s,b}} norms need a finite b > 1/r, "
                                 f"got b = {cfg.b} at r = {r}")
        g = cfg.grid
        if fp.grid != g.spatial or fm.grid != g.spatial:
            raise GridMismatchError("initial spectra do not live on the spatial lattice")
        if source is not None and np.shape(source) != g.shape:
            raise GridMismatchError(
                f"source slices of shape {np.shape(source)} do not match the grid {g.shape}"
            )
        projected = _hermitian_part(fp, fm, source)
        real = projected is not None
        if real:
            fp, fm, source = projected
        h = g.spatial.n // 2 + 1 if real else g.spatial.n
        core = _core_slices(g, cfg.delta)
        blk = _window_block(core)
        self.g, self.ns, self.tol, self.r, self.s = g, ns, cfg.tol, r, s
        self.data, self.blk = tuple(x.data[..., :h] for x in (fp, fm)), blk
        self.m0 = g.origin_index - blk.start
        # loop invariants: f = mask B(u, u)/J + S/J
        self.weight = 1.0 / g.spatial.bracket[..., :h]
        if source is not None:
            source = source[blk, ..., :h] / g.spatial.bracket[..., :h]
        self.source = source
        forward = tuple(_duhamel_step(g, sign, h) for sign in (+1, -1))
        self.steps = forward, tuple(np.conj(step) for step in forward)
        # the free parts on the block; the slices off it are formed once, at the end
        self.flows = EvolutionSpec("J", +1), EvolutionSpec("J", -1)
        self.free_p, self.free_m = (_free_slices_at(g.spatial, x, e, g.t_axis[blk])
                                    for x, e in zip(self.data, self.flows))
        self.xsb_wts = None
        if cfg.b is not None:
            self.xsb_wts = _xsb_weights(g, NormParams(r, s, cfg.b, +1), h)
            # the window is 1 on the core, which is joined in only so that no
            # rounding of delta can leave a core slice out of its block; it
            # folds in dt and the time signs, so the bare time DFT of the
            # windowed difference has the centered spectrum's modulus
            window = window_values(cfg.window, g.t_axis)
            self.x_blk = xblk = _window_block((window != 0) | core)
            self.x_window = (window * g.dt * _signs(g.m))[xblk, None, None, None]
        self.sp, self.sm = self.free_p, self.free_m
        self.grew = 0
        self.seeds = None           # of the last sweep: none before the first
        self.result = PicardResult(g, None, None, real_data=real)

    def _x_distance(self, diffs, seeds) -> float:
        """The X-distance of the new iterates from the old under the window:
        diffs holds their difference on the block.  Past it the free parts
        cancel, so over the window's tails it is the J-flow of seeds less
        self.seeds, the old sweep's, none before the first (see _flow_past)."""
        g, blk, xblk = self.g, self.blk, self.x_blk
        windowed = np.empty((g.m,) + diffs[0].shape[1:], dtype=np.complex128)
        old = (None, None) if self.seeds is None else zip(*self.seeds)

        def spectra():
            for x, e, new, was in zip(diffs, self.flows, zip(*seeds), old):
                # zero the padding afresh: the bare transform may have overwritten it
                windowed[:xblk.start] = windowed[xblk.stop:] = 0.0
                windowed[blk] = x
                gaps = new if was is None else (a - b for a, b in zip(new, was))
                _flow_past(windowed, None, gaps, e, g, blk, xblk)
                windowed[xblk] *= self.x_window
                yield _dft(windowed, time=g, bare=True)
        return float(sum(_lattice_norms(g, spectra(), self.xsb_wts, self.r)))

    def advance(self, max_iter: int) -> None:
        """Iterate until the loop stops or max_iter iterations ran in all.

        An iteration holds seven block arrays: the free slices, the
        iterates, the forcing and the sweep's two outputs, which become the
        next iterates.  Each work array is made where it is used and is a
        local of _iterate, so none outlives its iteration.
        """
        result = self.result
        while result.status == "unconverged" and result.iterations < max_iter:
            self._iterate()

    def _iterate(self) -> None:
        """One Picard iteration: the new iterates, their distances from the old and the status."""
        g, result = self.g, self.result
        sp, sm = self.sp, self.sm
        f = _bilinear_spec(sp, sm, self.ns, g)
        f *= self.weight
        if self.source is not None:
            f += self.source
        new_p, new_m, seeds = _linear_sweep(f, (self.free_p, self.free_m), self.steps, g, self.m0)
        del f       # dead, so the distances hold no forcing beside the differences
        new_p += self.free_p
        new_m += self.free_m
        # the old iterates are dead once differenced: their buffers take the
        # differences, except the free slices, which are kept
        diffs = (np.subtract(new_p, sp, out=None if sp is self.free_p else sp),
                 np.subtract(new_m, sm, out=None if sm is self.free_m else sm))
        norms_p, norms_m = _slice_norms(g, diffs, self.r, self.s)
        d = float(np.max(norms_p) + np.max(norms_m))
        finite = math.isfinite(d)
        if self.xsb_wts is not None:
            dr = self._x_distance(diffs, seeds)
            result.restricted_distances.append(dr)
            finite = finite and math.isfinite(dr)
        if result.distances:
            self.grew = self.grew + 1 if d > result.distances[-1] else 0
        result.distances.append(d)
        self.sp, self.sm, self.seeds = new_p, new_m, seeds
        result.iterations += 1
        if not finite:
            result.status = "nonfinite"
        elif d <= self.tol:
            result.status = "converged"
        elif self.grew >= 3:
            result.status = "diverged"

    def finish(self) -> PicardResult:
        """The result, with the last iterate on every slice of the lattice the loop ran on."""
        g, result = self.g, self.result
        # the last sweep continued to every slice; SolveConfig's max_iter >= 1
        # means advance ran one
        result.sp, result.sm = (_extend(u, x, e, g, self.blk, seed) for u, x, e, seed in
                                zip((self.sp, self.sm), self.data, self.flows, zip(*self.seeds)))
        return result


# select_delta's accepted trial, {_loop_key: _PicardState}; see picard_iterate
_TRIAL: dict = {}


def _loop_key(fp: Spectrum, fm: Spectrum, ns: NonlinearitySpec, cfg: SolveConfig,
              r: float, s: float) -> tuple:
    """Every input of the Picard loop but the iteration budget and a source,
    with the product kernel in use: the config enters whole, its budget set
    to 1, so a field added to it joins the key."""
    data = tuple((x.grid, x.data.dtype, x.data.shape, x.data.tobytes()) for x in (fp, fm))
    return (data, ns, replace(cfg, max_iter=1), r, s, _bilinear_spec)


def picard_iterate(
    fp: Spectrum,
    fm: Spectrum,
    ns: NonlinearitySpec,
    cfg: SolveConfig,
    r: float = 2.0,
    s: float = 1.0,
    source: np.ndarray | None = None,
) -> PicardResult:
    """Contraction iteration u^{(n+1)} = free flow + Duhamel(g(u^{(n)}, u^{(n+1)})).

    Only the nonlinearity is iterated: the forcing f = J^{-1} (mask B_k(u, u)
    + S), u = w/2, comes from the previous iterate, formed as mask B / J + S/J
    from the product kernel (_bilinear_spec), with 1/J and S/J built once
    per call; the linear term c w/2, c = 1/J, that the first-order rewrite
    adds to the forcing is solved slice by slice inside the trapezoid sweep
    (see _linear_sweep).  The fixed point solves the same discrete equations
    u = free + Duhamel(g(u)) as iterating the whole forcing, but the step
    ratios measure B and the source alone: with B = 0 and no source the
    second iterate equals the first.

    The loop runs on the core [-delta, delta] alone, and the iterate is
    extended to the whole time axis once, at the end: past the core the
    loop solves no equation (f = c = 0), so u past each end is the J-flow of
    one edge datum (see _flow_past).  The iterates, and the source if given,
    are spatial spectral slices.  The distance between consecutive iterates
    is the sup over the core of the data-space norm (both components); it
    alone decides convergence and divergence (see PicardResult.status).
    When cfg.b is set, each iteration also takes the X^r_{s,b} norm of the
    difference under cfg.window, continued over the window's tails as the
    J-flow of the difference of the two sweeps' seeds: an upper bound of
    its restriction norm, reported as restricted_distances.  A non-finite
    one flags divergence too; nothing else reads it.

    Real data (fm = conj R fp for the reflection R: xi -> -xi, and a real
    source; see _hermitian_part) keep u_- = conj R u_+ at every iterate, so
    the pair cut to the half lattice (the first N//2 + 1 entries of the last
    axis) fixes both components.  The loop then runs on half spectra, with
    the real transforms and mate weights (see spaces._mate), and returns
    them.

    A call right after select_delta, at its returned delta, on the same
    data and settings (the same nonlinearity, grid, tol, b, r and s,
    and the same product kernel), with no source and a budget of at least
    the trial's iterations, resumes the trial select_delta parked in place
    of starting again from the free flow.  The resumed loop runs the same
    code on the same arrays as a fresh one, so the result is the same, bit
    for bit.  Every call empties the one-entry memo.
    """
    memo = _TRIAL.popitem() if _TRIAL else None
    state = None
    if memo is not None and source is None \
            and memo[1].result.iterations <= cfg.max_iter \
            and memo[0] == _loop_key(fp, fm, ns, cfg, r, s):
        state = memo[1]
    memo = None             # a parked state not resumed goes before a new one is built
    if state is None:
        state = _PicardState(fp, fm, ns, cfg, r, s, source)
    state.advance(cfg.max_iter)
    return state.finish()


@dataclass
class SolveReport:
    """A solve and its audit; status is the Picard status, or "unaudited"
    when a converged solve has no slice to audit.  success reads status."""

    result: PicardResult
    u: SpacetimeField
    dtu: SpacetimeField
    residual: float
    residual_scale: float
    persistence: np.ndarray
    max_jump: float
    z_value: float | None
    status: str

    @property
    def success(self) -> bool:
        return self.status == "converged"


def _box_residual(u_spec: np.ndarray, g: SpacetimeGrid, b_spec: np.ndarray,
                  audit: slice) -> tuple[float, float]:
    """RMS of Box u - B and of B over the audit slices; d_t^2 by 4th-order differences.

    u_spec holds the spatial spectral slices of u on the whole time axis,
    b_spec those of B on the audit slices alone, which lie at least two
    slices inside the core; both are on the lattice the loop ran on.  Each
    RMS is the lattice L^2 norm over the K audit slices (a half spectrum
    counts its mates), divided by (dxi^3 K N^3)^{1/2}.  An empty audit has
    no residual (NaN) and scale 0.
    """
    lo, hi = audit.start, audit.stop
    if hi <= lo:
        return math.nan, 0.0
    sg, u = g.spatial, u_spec
    h = u.shape[-1]
    utt = (
        -u[lo - 2:hi - 2] + 16 * u[lo - 1:hi - 1] - 30 * u[lo:hi] + 16 * u[lo + 1:hi + 1]
        - u[lo + 2:hi + 2]
    ) / (12.0 * g.dt**2)
    box = utt + sg.modulus[..., :h]**2 * u[lo:hi]  # -Laplacian has symbol |xi|^2
    resid = box - b_spec
    weights = _slice_weights(sg, 2.0, 0.0, h)
    cells = math.sqrt(sg.dxi**3 * (hi - lo) * sg.n**3)
    return tuple(float(_lattice_norms(sg, [x], weights, 2.0)[0]) / cells for x in (resid, b_spec))


def solve_local(
    fp: Spectrum,
    fm: Spectrum,
    ns: NonlinearitySpec,
    cfg: SolveConfig,
    r: float = 2.0,
    s: float = 1.0,
    source: SpacetimeField | None = None,
) -> SolveReport:
    """Run the contraction to tolerance and audit the solution.

    Reports the Box-residual on the interior of [-delta, delta], the
    persistence curve t -> data-space norm of the components, and for k = 2,
    when cfg.b is set, the Z-norm diagnostic: z_norm's two terms, X^r_{s,b}
    and X^r_{s-1,b}, of psi u and psi d_t u, psi = cfg.window, which bound
    the restriction norm of (u, d_t u) to [-delta, delta] through the
    solve's own continuation, as the X-distances do; z_value is None
    otherwise.  u and d_t u cover the whole time axis; the persistence
    curve covers the core slices |t| <= delta alone, its first entry at the
    first core slice (so the t_index of solve.csv counts from there).
    The residual audits the core slices whose d_t^2 stencil, two slices each
    way, lies in the core: off the core the loop solves no equation.
    mask B(u, u), the forcing the loop iterated, and the source term are
    formed on the audited slices alone; no slice left to audit is reported
    in SolveReport.status.  Everything is read on the lattice the loop ran
    on (see PicardResult), so u and d_t u of real data come from their half
    spectra through the real inverse transform, and the norms count mates.
    """
    g = cfg.grid
    sg = g.spatial
    src = None if source is None else spatial_forward_slices(source)
    result = picard_iterate(fp, fm, ns, cfg, r=r, s=s, source=src)
    sp, sm = result.sp, result.sm
    h = sp.shape[-1]        # N//2 + 1 for real data, see PicardResult
    core = _core_slices(g, cfg.delta)
    lo, hi = np.flatnonzero(core)[[0, -1]] + (2, -1)
    audit = slice(lo, max(lo, hi))
    # mask B(u, u), the forcing the loop iterated
    b_spec = _bilinear_spec(sp[audit], sm[audit], ns, g)
    if src is not None:
        b_spec += src[audit, ..., :h]
    u_spec = sp + sm
    u_spec /= 2.0
    # d_t u = d_t w/2 by the evolution identity d_t w = -iJ(u_+ - u_-)
    dtu_spec = sp - sm
    dtu_spec *= -0.5j * sg.bracket[..., :h]
    u = SpacetimeField(g, _dft(u_spec, sg, inverse=True))
    dtu = SpacetimeField(g, _dft(dtu_spec, sg, inverse=True))
    residual, scale = _box_residual(u_spec, g, b_spec, audit)

    norms_p, norms_m = _slice_norms(g, (sp[core], sm[core]), r, s)
    pers = norms_p + norms_m
    jumps = np.abs(np.diff(pers))
    z_value = None
    if ns.k == 2 and cfg.b is not None:
        # z_norm's two terms of psi u and psi d_t u, psi = cfg.window, with one
        # time transform alive at a time; u_spec and dtu_spec are dead, so
        # they take psi in place
        psi = window_values(cfg.window, g.t_axis)[:, None, None, None]
        z_value = 0.0
        for spec, reg in ((u_spec, s), (dtu_spec, s - 1.0)):
            spec *= psi
            weights = _xsb_weights(g, NormParams(r, reg, cfg.b, +1), h)
            z_value += float(_lattice_norms(g, [time_forward(g, spec)], weights, r)[0])
    return SolveReport(
        result=result,
        u=u,
        dtu=dtu,
        residual=residual,
        residual_scale=scale,
        persistence=pers,
        max_jump=float(jumps.max()) if jumps.size else 0.0,
        z_value=z_value,
        status="unaudited" if result.converged and hi <= lo else result.status,
    )


_RHO_TARGET = 0.9       # select_delta accepts a delta whose rho_1 is below this
_MAX_TRIALS = 8


def select_delta(
    d: CauchyData,
    ns: NonlinearitySpec,
    grid: SpacetimeGrid,
    b: float | None = None,
) -> tuple[float, list[dict]]:
    """Halve the local time radius until the first contraction factor is small.

    Starts at min(1, 0.5 / (1 + max data norm), 0.95 T), 0.95 T the
    largest delta a config takes (SolveConfig.largest_delta), and tries no
    delta below 2 dt: the core then keeps two slices on each side of t = 0,
    where a core of t = 0 alone would give rho_1 = 0 by construction.
    Returns the first accepted delta with the trial trace; when none is
    accepted, the last one tried, at the floor or after _MAX_TRIALS trials.
    Each trial builds picard_iterate's loop state for default_config(grid,
    delta, max_iter=2, b=b) and advances it two iterations on the core;
    with b set it forms the windowed X-distances too, so that the state is
    that of a solve with the same b, and a non-finite one stops it.  rho_1
    does not depend on b.  Only the returned delta's state is parked in the
    one-entry memo, and picard_iterate (so solve_local) at that delta on the
    same data and settings, b included, resumes it from iteration 2.
    rho_1, the contraction factor of the nonlinearity, shrinks with the
    data and with delta.  Each trace entry holds the trial's delta, rho_1
    and Picard status; rho_1 is 0 for a trial that converged at its first
    distance (zero data), and None, never accepted, for a trial that
    stopped with fewer than two finite distances.
    """
    n0, n1 = d.norms()
    floor = 2.0 * grid.dt
    delta = max(floor, min(1.0, 0.5 / (1.0 + max(n0, n1)), SolveConfig.largest_delta(grid)))
    fp, fm = to_first_order(d)
    _TRIAL.clear()
    trace = []
    while True:
        cfg = default_config(grid, delta, max_iter=2, b=b)
        state = _PicardState(fp, fm, ns, cfg, d.r, d.s, None)
        state.advance(cfg.max_iter)
        res = state.result
        if len(res.distances) == 2 and all(map(math.isfinite, res.distances)):
            rho1 = res.rhos[0]
        elif res.converged:
            rho1 = 0.0          # converged at its first distance: zero data
        else:
            rho1 = None         # no two finite distances: nothing was measured
        trace.append({"delta": delta, "rho1": rho1, "status": res.status})
        accepted = rho1 is not None and rho1 < _RHO_TARGET
        if accepted or delta == floor or len(trace) == _MAX_TRIALS:
            _TRIAL[_loop_key(fp, fm, ns, cfg, d.r, d.s)] = state
            return delta, trace
        state = None        # the rejected trial's state goes before the next is built
        delta = max(floor, delta / 2.0)


def flow_lipschitz_probe(
    pairs,
    ns: NonlinearitySpec,
    cfg: SolveConfig,
) -> dict:
    """Solution-distance / data-distance ratios for pairs of Cauchy data.

    The solution distance is the sup over |t| <= delta of the data-space
    norm of the difference (both components).  The off-origin ratios take
    the sup over the core slices with t != 0 alone, so they leave out t = 0,
    where the solution distance is the data distance.

    Each pair is a (CauchyData, CauchyData) tuple on cfg.grid, and both of
    its data are solved with the first datum's (r, s) by picard_iterate: the
    ratios read the iterates alone, not solve_local's audit, and no X-norm:
    the solves take cfg with b None, so cfg.b changes nothing.  Pairs whose
    loops do not converge are excluded and flagged; identical pairs are
    reported as skipped.  Of each solve only its status and the core slices
    of its iterates are kept.  Those of a pair's first datum are kept while
    the pairs that follow repeat it (equal arrays, equal r and s), so pairs
    built around one base datum solve it once; every other datum is solved
    for each pair it is in.
    """
    cfg = replace(cfg, b=None)
    g = cfg.grid
    core = _core_slices(g, cfg.delta)
    off_origin = np.flatnonzero(core) != g.origin_index

    def solved(f, r_, s_):
        # (converged, u_+ and u_- on the core) of one solve, the rest dropped;
        # a real solve's are completed, so that it pairs with a complex one
        res = picard_iterate(*f, ns, cfg, r=r_, s=s_)
        sp, sm = res.sp[core], res.sm[core]
        if res.real_data:
            sp = hermitian_full(sp, sm)
            sm = conj_reflect(sp)
        return res.converged, sp, sm

    first = None            # (key, solved) of the last first datum solved
    ratios, ratios_off, rows = [], [], []
    for d1, d2 in pairs:
        r_, s_ = d1.r, d1.s
        f1, f2 = to_first_order(d1), to_first_order(d2)
        ddist = sobolev_hat_norm(Spectrum(g.spatial, f1[0].data - f2[0].data), r_, s_) + \
            sobolev_hat_norm(Spectrum(g.spatial, f1[1].data - f2[1].data), r_, s_)
        if ddist == 0.0:
            rows.append({"ratio": None, "status": "skipped"})
            continue
        key = d1.u0.data.tobytes(), d1.u1.data.tobytes(), r_, s_
        if first is None or first[0] != key:
            first = None        # the kept solve goes before the next is formed
            first = key, solved(f1, r_, s_)
        (ok1, p1, m1), (ok2, p2, m2) = first[1], solved(f2, r_, s_)
        if not (ok1 and ok2):
            rows.append({"ratio": None, "status": "no-contraction"})
            continue
        # the second solve's core slices take the differences
        diffs = np.subtract(p1, p2, out=p2), np.subtract(m1, m2, out=m2)
        norms_p, norms_m = _slice_norms(g, diffs, r_, s_)
        ratio = float(np.max(norms_p) + np.max(norms_m)) / ddist
        ratios.append(ratio)
        if off_origin.any():
            off = float(np.max(norms_p[off_origin]) + np.max(norms_m[off_origin]))
            ratios_off.append(off / ddist)
        rows.append({"ratio": ratio, "status": "ok"})
    statuses = [row["status"] for row in rows]
    return {
        "max_ratio": max(ratios) if ratios else None,
        "ratios": ratios,
        "max_ratio_off_origin": max(ratios_off) if ratios_off else None,
        "ratios_off_origin": ratios_off,
        "rows": rows,
        "skipped": statuses.count("skipped"),
        "failed": statuses.count("no-contraction"),
    }
