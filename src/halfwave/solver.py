"""Pseudospectral Picard solver for the quadratic wave equation.

The second-order problem Box u = B_k(u, u) is rewritten as a first-order
system for u_pm = u +- i J^{-1} u_t, which the iteration solves with the
exponential integrator; the nonlinearity is evaluated pointwise with
2/3-rule dealiasing.  The iterates are kept as spatial spectral slices,
shape (M, N, N, N); configuration space is visited only for the pointwise
product.  Real data have u_- = conj u_+(-xi) at every iterate, so for them
only u_+ is iterated and the product runs on half spectra.  Correctness is
judged convention-free through the Box residual and through contraction
diagnostics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import (
    SpacetimeField,
    SpacetimeGrid,
    SpacetimeSpectrum,
    Spectrum,
    _spatial_dft,
    conj_reflect,
    hermitian_full,
    reflect,
    spatial_forward_slices,
    spatial_inverse_slices,
    time_forward,
)
from .propagator import EvolutionSpec, _duhamel, duhamel, free_slices
from .spaces import (
    NormParams,
    WindowSpec,
    _sobolev_weight,
    _xsb_norms,
    _xsb_weight,
    dual_exponent,
    sobolev_hat_norm,
    window_values,
    xsb_norm,
    z_norm,
)

__all__ = [
    "CauchyData",
    "NonlinearitySpec",
    "SolveConfig",
    "to_first_order",
    "from_first_order",
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
    """Position and velocity spectra plus the intended data-space exponents."""

    u0: Spectrum
    u1: Spectrum
    r: float = 2.0
    s: float = 1.0

    def __post_init__(self):
        if self.u0.grid != self.u1.grid:
            raise GridMismatchError("position and velocity data live on different lattices")

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
    """Local solve parameters: time radius, window, iteration budget, norms."""

    grid: SpacetimeGrid
    delta: float
    window: WindowSpec
    max_iter: int = 12
    tol: float = 1e-10
    b: float = 0.55

    def __post_init__(self):
        if self.delta <= 0:
            raise ParameterError("delta must be positive")
        if self.delta > self.window.flat_core + 1e-12:
            raise ParameterError(
                f"delta = {self.delta} exceeds the window flat core {self.window.flat_core}"
            )
        if self.window.support > self.grid.half_time:
            raise ParameterError("window support exceeds the time box")


def default_config(grid: SpacetimeGrid, delta: float, **kw) -> SolveConfig:
    """Config whose window is 1 on [-delta, delta] and vanishes by 2*delta."""
    support = min(2.0 * delta, 0.95 * grid.half_time)
    if delta > support:
        raise ParameterError(
            f"delta = {delta} does not fit the time box (half_time {grid.half_time})"
        )
    # the flat core must cover [-delta, delta]
    w = WindowSpec(support=support, flat_fraction=min(1.0, max(0.5, delta / support)))
    return SolveConfig(grid, delta, w, **kw)


def to_first_order(d: CauchyData) -> tuple[Spectrum, Spectrum]:
    """f_pm = u0 +- i J^{-1} u1 on the spatial lattice."""
    sg = d.u0.grid
    shift = 1j * d.u1.data / sg.bracket
    return Spectrum(sg, d.u0.data + shift), Spectrum(sg, d.u0.data - shift)


def from_first_order(fp: Spectrum, fm: Spectrum) -> tuple[Spectrum, Spectrum]:
    """Exact inverse of to_first_order."""
    if fp.grid != fm.grid:
        raise GridMismatchError("the two components live on different lattices")
    sg = fp.grid
    u0 = (fp.data + fm.data) / 2.0
    u1 = sg.bracket * (fp.data - fm.data) / (2.0 * 1j)
    return Spectrum(sg, u0), Spectrum(sg, u1)


def _spatial_derivative(
    g: SpacetimeGrid, spec_slices: np.ndarray, derivative: str, out: np.ndarray | None = None
) -> np.ndarray:
    """i xi_d times the slices, into out; on a half spectrum xi_3 is cut to its half."""
    axis = _DERIVS.index(derivative)
    shape = [1, 1, 1, 1]
    shape[axis] = spec_slices.shape[axis]
    return np.multiply(spec_slices, 1j * g.spatial.xi_axis[: shape[axis]].reshape(shape), out=out)


def _dt_w_slices(g: SpacetimeGrid, sp: np.ndarray, sm: np.ndarray) -> np.ndarray:
    """Spectral slices of d_t(u_+ + u_-) via the evolution identity -iJ(u_+ - u_-)."""
    out = sp - sm
    out *= -1j * g.spatial.bracket[..., : sp.shape[-1]]
    return out


def _to_space(g: SpacetimeGrid, spec: np.ndarray, real: bool) -> np.ndarray:
    """Configuration slices of any number of spectral slices; real ones from half spectra."""
    return _spatial_dft(spec, (1, 2, 3), g.spatial, inverse=True, real=real)


def _to_spectrum(g: SpacetimeGrid, values: np.ndarray, real: bool) -> np.ndarray:
    """Spectral slices of any number of configuration slices; half spectra of real ones."""
    return _spatial_dft(values, (1, 2, 3), g.spatial, real=real)


def _bilinear_spec(
    sp: np.ndarray,
    sm: np.ndarray,
    w: np.ndarray,
    ns: NonlinearitySpec,
    g: SpacetimeGrid,
    real: bool = False,
) -> np.ndarray:
    """Spectral slices of B_k(w, w) for w = sp + sm, from 2/3-rule dealiased factors.

    For d(w^2) with a spatial derivative the factor of d is the dealiased
    product; otherwise the output itself is not masked.  d_t w always comes
    from the evolution identity, never from differencing.  With real=True,
    sp, sm and w are the half spectra of real data (sm = conj R sp), w is
    real, and the product goes through the real transforms; the output is
    the half spectrum of B.  The slices may be any consecutive time slices;
    none of the arguments is changed.
    """
    mask = g.spatial.dealias_mask[..., : sp.shape[-1]]
    if ns.k == 1:
        w = _to_space(g, w * mask, real)
        if ns.derivative == "t":
            # d_t(w^2) = 2 w d_t w
            dtw = _dt_w_slices(g, sp, sm)
            dtw *= mask
            w *= 2.0
            w *= _to_space(g, dtw, real)
            return _to_spectrum(g, w, real)
        w *= w
        pspec = _to_spectrum(g, w, real)
        pspec *= mask
        return _spatial_derivative(g, pspec, ns.derivative, out=pspec)
    if ns.derivative == "t":
        dspec = _dt_w_slices(g, sp, sm)
    else:
        dspec = _spatial_derivative(g, w, ns.derivative)
    dspec *= mask
    dw = _to_space(g, dspec, real)
    dw *= dw
    return _to_spectrum(g, dw, real)


def _rhs_minus(
    sp: np.ndarray,
    sm: np.ndarray,
    ns: NonlinearitySpec,
    g: SpacetimeGrid,
    source: np.ndarray | None,
    real: bool,
) -> np.ndarray:
    """g_- = J^{-1} (B_k(w, w)/4 + w/2 + S), in place on the product's slices.

    With real=True every argument and the result are half spectra.  Any
    number of consecutive time slices is accepted.
    """
    h = sp.shape[-1]
    w = sp + sm
    out = _bilinear_spec(sp, sm, w, ns, g, real)
    out *= g.spatial.dealias_mask[..., :h]
    out /= 4.0
    w /= 2.0
    out += w
    if source is not None:
        out += source
    out /= g.spatial.bracket[..., :h]
    return out


def rhs_eval(
    sp: np.ndarray,
    sm: np.ndarray,
    ns: NonlinearitySpec,
    g: SpacetimeGrid,
    source: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """g_pm = -+ J^{-1} (B_k(w, w)/4 + w/2 + S) for w = u_+ + u_-.

    sp, sm, the source S and the returned pair are spatial spectral slices,
    shape (M, N, N, N) on g; only the pointwise product visits configuration
    space.  Spatial derivatives are spectral, and the product and its factors
    are 2/3-rule dealiased.
    """
    for a in (sp, sm) if source is None else (sp, sm, source):
        if np.shape(a) != g.shape:
            raise GridMismatchError(
                f"rhs slices of shape {np.shape(a)} do not match the grid {g.shape}"
            )
    gm = _rhs_minus(sp, sm, ns, g, source, real=False)
    return -gm, gm


def _rhs_real(
    sp: np.ndarray, ns: NonlinearitySpec, g: SpacetimeGrid, source_half, window: np.ndarray
) -> np.ndarray:
    """window * g_+ of rhs_eval for real data, from u_+ alone.

    g_+ is minus a Hermitian spectrum, so it is formed on the half lattice
    and completed once.  The window is real and depends on t only, so it
    commutes with the completion.
    """
    n = g.spatial.n
    h = n // 2 + 1
    gp = _rhs_minus(sp[..., :h], conj_reflect(sp, h), ns, g, source_half, real=True)
    gp *= -window
    return hermitian_full(gp, n)


_REAL_RTOL = 1e-14


def _hermitian_part(fp: Spectrum, fm: Spectrum, source: np.ndarray | None):
    """(fp, source) projected onto real data, or None when the data are not real.

    Real Cauchy data have fm = conj R fp, R the reflection xi -> -xi, and a
    real source has slices S = conj R S.  Each relation is tested to
    _REAL_RTOL relative to the largest entry of its two sides; data that
    pass are projected onto it exactly, fp to (fp + conj R fm)/2 and S to
    (S + conj R S)/2, so that conj R of the projected fp is the projected fm.
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
    return Spectrum(fp.grid, (fp.data + rfm) / 2.0), source


def _slice_norms(
    g: SpacetimeGrid,
    spec_slices: np.ndarray,
    r: float,
    s: float,
    wt: np.ndarray | None = None,
) -> np.ndarray:
    """sobolev_hat_norm of every time slice, vectorized; wt is _sobolev_weight(g.spatial, r, s)."""
    rp = dual_exponent(r)
    if wt is None:
        wt = _sobolev_weight(g.spatial, r, s)
    totals = np.sum(wt[None] * np.abs(spec_slices) ** rp, axis=(1, 2, 3))
    return (totals * g.spatial.dxi**3) ** (1.0 / rp)


def _core_slices(g: SpacetimeGrid, delta: float) -> np.ndarray:
    return np.abs(g.t_axis) <= delta + 1e-12


@dataclass
class PicardResult:
    """Final iterates as spatial spectral slices (sp, sm), plus diagnostics.

    up and um are the same iterates in configuration space, transformed on
    first access.  real_data tells whether the real-data path ran (see
    picard_iterate).  status says why the loop stopped: "converged" (a
    distance reached tol), "unconverged" (the budget ran out), "diverged"
    (three consecutive growing distances) or "nonfinite" (a non-finite
    distance); converged and diverged are read from it.
    """

    grid: SpacetimeGrid
    sp: np.ndarray
    sm: np.ndarray
    distances: list = dc_field(default_factory=list)
    restricted_distances: list = dc_field(default_factory=list)
    rhos: list = dc_field(default_factory=list)
    iterations: int = 0
    real_data: bool = False
    status: str = "unconverged"

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def diverged(self) -> bool:
        return self.status in ("diverged", "nonfinite")

    @cached_property
    def up(self) -> SpacetimeField:
        return spatial_inverse_slices(self.grid, self.sp)

    @cached_property
    def um(self) -> SpacetimeField:
        return spatial_inverse_slices(self.grid, self.sm)


def picard_iterate(
    fp: Spectrum,
    fm: Spectrum,
    ns: NonlinearitySpec,
    cfg: SolveConfig,
    r: float = 2.0,
    s: float = 1.0,
    source: np.ndarray | None = None,
) -> PicardResult:
    """Contraction iteration u^{(n+1)} = free flow + Duhamel(g(u^{(n)})).

    The iterates, and the source if given, are spatial spectral slices.
    Distances between consecutive iterates are measured as the sup over
    |t| <= delta of the data-space norm (both components) and as the
    windowed space-time restriction norm; rho_n is their step ratio.  Three
    consecutive growing distances, or one non-finite distance, flag
    divergence (see PicardResult.status).

    The forcing is multiplied by the time window, so the loop reads only
    the block of time slices where the window is nonzero: the right side,
    its transforms and the Duhamel sweep run there, and the iterate is
    extended to the whole time axis once, at the end, by one full sweep of
    the last forcing.  The result is the same, bit for bit, as iterating on
    every slice.

    Real data (fm = conj R fp for the reflection R: xi -> -xi, and a real
    source; see _hermitian_part) keep u_- = conj R u_+ at every iterate, so
    only u_+ is iterated, its pointwise product goes through the real
    transforms, and u_- is formed once at the end.
    """
    g = cfg.grid
    if fp.grid != g.spatial or fm.grid != g.spatial:
        raise GridMismatchError("initial spectra do not live on the spatial lattice")
    if source is not None and np.shape(source) != g.shape:
        raise GridMismatchError(
            f"source slices of shape {np.shape(source)} do not match the grid {g.shape}"
        )
    real = _hermitian_part(fp, fm, source)
    if real is None:
        return _picard(fp, fm, ns, cfg, r, s, source)
    fp, source = real
    return _picard(fp, None, ns, cfg, r, s, source)


def _picard(
    fp: Spectrum,
    fm: Spectrum | None,
    ns: NonlinearitySpec,
    cfg: SolveConfig,
    r: float,
    s: float,
    source: np.ndarray | None,
) -> PicardResult:
    """picard_iterate on both components, or on u_+ of real data when fm is None."""
    g = cfg.grid
    real = fm is None
    # the window is even, nonincreasing in |t| and 1 on the core, so the
    # slices where it is nonzero are one block around t = 0; the core is
    # joined in only so that no rounding of delta can leave a core slice out
    window = window_values(cfg.window, g.t_axis)
    core = _core_slices(g, cfg.delta)
    kept = np.flatnonzero((window != 0) | core)
    blk = slice(kept[0], kept[-1] + 1)
    m0 = g.origin_index - blk.start
    core = core[blk]
    # loop invariants; the window only scales time, so it commutes with the
    # spatial transform and applies to spectral slices directly
    window = window[blk, None, None, None]
    params = NormParams(r, s, cfg.b, +1)
    slice_wt = _sobolev_weight(g.spatial, r, s)
    xsb_wt = _xsb_weight(g, params)
    free_p = free_slices(fp, g, EvolutionSpec("J", +1))
    free_bp = free_p[blk]
    if source is not None:
        source = source[blk]
    if real:
        h = g.spatial.n // 2 + 1
        source = None if source is None else source[..., :h]
        # <xi> is R-invariant, so u_- has the sup distance of u_+.  The
        # X-weight is not: |F_-(tau, xi)| = |F_+(-tau, -xi)|, periodically on
        # both axes, so the X-norm of F_- is that of F_+ under the reflected weight
        xsb_wt_m = reflect(xsb_wt, (0, 1, 2, 3))
        free_m = free_bm = None
    else:
        free_m = free_slices(fm, g, EvolutionSpec("J", -1))
        free_bm = free_m[blk]
    # the windowed difference on every slice, zero off the block
    windowed = np.zeros(g.shape, dtype=np.complex128)

    def sup_norm(diff):
        return np.max(_slice_norms(g, diff[core], r, s, slice_wt))

    def windowed_spectrum(diff):
        # upper bound for the [-delta, delta] restriction norm via one window
        np.multiply(diff, window, out=windowed[blk])
        return SpacetimeSpectrum(g, time_forward(g, windowed))

    def extend(forcing, sign, free):
        # the iterate on every slice: one sweep of the forcing, zero off the block
        if forcing is None:
            return free
        full = np.zeros(g.shape, dtype=np.complex128)
        full[blk] = forcing
        out = duhamel(full, sign, g)
        out += free
        return out

    sp, sm = free_bp, free_bm
    gp = gm = None
    result = PicardResult(g, free_p, free_m, real_data=real)
    grew = 0
    for n in range(cfg.max_iter):
        if real:
            gp = _rhs_real(sp, ns, g, source, window)
        else:
            gm = _rhs_minus(sp, sm, ns, g, source, real=False)
            gm *= window
            gp = -gm
        new_p = _duhamel(gp, +1, g, m0)
        new_p += free_bp
        # the old iterate is dead once differenced: its buffer takes the difference
        diff_p = np.subtract(new_p, sp, out=None if sp is free_bp else sp)
        if real:
            d = 2.0 * float(sup_norm(diff_p))
            dr = sum(_xsb_norms(windowed_spectrum(diff_p), params, (xsb_wt, xsb_wt_m)))
        else:
            new_m = _duhamel(gm, -1, g, m0)
            new_m += free_bm
            diff_m = np.subtract(new_m, sm, out=None if sm is free_bm else sm)
            d = float(sup_norm(diff_p) + sup_norm(diff_m))
            dr = (xsb_norm(windowed_spectrum(diff_p), params, weight=xsb_wt)
                  + xsb_norm(windowed_spectrum(diff_m), params, weight=xsb_wt))
            sm = new_m
        if result.distances:
            prev = result.distances[-1]
            result.rhos.append(d / prev if prev > 0 else 0.0)
            grew = grew + 1 if d > prev else 0
        result.distances.append(d)
        result.restricted_distances.append(dr)
        sp = new_p
        result.iterations = n + 1
        if not (math.isfinite(d) and math.isfinite(dr)):
            result.status = "nonfinite"
            break
        if d <= cfg.tol:
            result.status = "converged"
            break
        if grew >= 3:
            result.status = "diverged"
            break
    result.sp = extend(gp, +1, free_p)
    result.sm = conj_reflect(result.sp) if real else extend(gm, -1, free_m)
    return result


@dataclass
class SolveReport:
    result: PicardResult
    u: SpacetimeField
    dtu: SpacetimeField
    residual: float
    residual_scale: float
    persistence: np.ndarray
    max_jump: float
    z_value: float | None
    success: bool


def _box_residual(
    u_spec: np.ndarray,
    g: SpacetimeGrid,
    b_spec: np.ndarray,
    audit: slice,
) -> tuple[float, float]:
    """RMS of Box u - B over the audit slices; d_t^2 by 4th-order differences.

    u_spec holds the spatial spectral slices of u on the whole time axis,
    b_spec those of B on the audit slices alone, which lie at least two
    slices inside the grid.
    """
    lo, hi = audit.start, audit.stop
    u = u_spec
    utt = (
        -u[lo - 2:hi - 2] + 16 * u[lo - 1:hi - 1] - 30 * u[lo:hi] + 16 * u[lo + 1:hi + 1]
        - u[lo + 2:hi + 2]
    ) / (12.0 * g.dt**2)
    box = utt + g.spatial.modulus**2 * u[lo:hi]  # -Laplacian has symbol |xi|^2
    resid = box - b_spec
    scale = float(np.sqrt(np.mean(np.abs(b_spec) ** 2))) if hi > lo else 0.0
    return float(np.sqrt(np.mean(np.abs(resid) ** 2))), scale


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
    persistence curve t -> data-space norm of the components, and for k = 2
    the Z-norm diagnostic (both regularities of the pair (u, d_t u)).  u,
    d_t u, the persistence curve and the Z-norm cover the whole time axis;
    B(u, u) and the source term of the residual are formed only on the
    slices it reads, the core less the grid's first and last two.
    """
    g = cfg.grid
    src = None if source is None else spatial_forward_slices(source)
    result = picard_iterate(fp, fm, ns, cfg, r=r, s=s, source=src)
    sp, sm = result.sp, result.sm
    real = result.real_data
    n = g.spatial.n
    h = n // 2 + 1 if real else n      # real data: u and d_t u from half spectra
    w = sp + sm
    u_spec = w / 2.0
    dtu_spec = _dt_w_slices(g, sp[..., :h], sm[..., :h]) / 2.0
    u = SpacetimeField(g, _to_space(g, u_spec[..., :h], real))
    dtu = SpacetimeField(g, _to_space(g, dtu_spec, real))

    core = _core_slices(g, cfg.delta)
    interior = np.flatnonzero(core[2:-2]) + 2
    audit = slice(interior[0], interior[-1] + 1) if interior.size else slice(2, 2)
    # B(u, u) = B(w, w)/4 for u = w/2
    b_spec = _bilinear_spec(sp[audit, ..., :h], sm[audit, ..., :h], w[audit, ..., :h],
                            ns, g, real) / 4.0
    if real:
        b_spec = hermitian_full(b_spec, n)
    if src is not None:
        b_spec = b_spec + src[audit]
    residual, scale = _box_residual(u_spec, g, b_spec, audit)

    if real:    # u_- = conj R u_+ has the slice norms of u_+
        norms = 2.0 * _slice_norms(g, sp, r, s)
    else:
        norms = _slice_norms(g, sp, r, s) + _slice_norms(g, sm, r, s)
    pers = norms[core]
    jumps = np.abs(np.diff(pers))
    z_value = None
    if ns.k == 2:
        z_value = z_norm(u, dtu, NormParams(r, s, cfg.b, +1))
    return SolveReport(
        result=result,
        u=u,
        dtu=dtu,
        residual=residual,
        residual_scale=scale,
        persistence=pers,
        max_jump=float(jumps.max()) if jumps.size else 0.0,
        z_value=z_value,
        success=result.converged,
    )


def select_delta(
    d: CauchyData,
    ns: NonlinearitySpec,
    grid: SpacetimeGrid,
    start: float | None = None,
    rho_target: float = 0.9,
    max_halvings: int = 8,
    **cfg_kw,
) -> tuple[float, list[dict]]:
    """Halve the local time radius until the first contraction factor is small.

    Starts at min(1, 0.5 / (1 + max data norm)) and returns the accepted
    delta with the trial trace.
    """
    n0, n1 = d.norms()
    delta = start if start is not None else min(1.0, 0.5 / (1.0 + max(n0, n1)))
    fp, fm = to_first_order(d)
    trace = []
    for _ in range(max_halvings):
        cfg = default_config(grid, delta, max_iter=3, **cfg_kw)
        res = picard_iterate(fp, fm, ns, cfg, r=d.r, s=d.s)
        rho1 = res.rhos[0] if res.rhos else 0.0
        trace.append({"delta": delta, "rho1": rho1})
        if rho1 < rho_target:
            return delta, trace
        delta /= 2.0
    return delta, trace


def flow_lipschitz_probe(
    pairs,
    ns: NonlinearitySpec,
    cfg: SolveConfig,
) -> dict:
    """Solution-distance / data-distance ratios for pairs of Cauchy data.

    Each pair is a (CauchyData, CauchyData) tuple on cfg.grid, and both of
    its data are solved with the first datum's (r, s).  Pairs whose solves
    fail to contract are excluded and flagged; identical pairs are reported
    as skipped.  A datum that recurs (equal arrays, equal r and s) is solved
    once, and its report is kept only until its last pair.
    """
    g = cfg.grid
    core = _core_slices(g, cfg.delta)

    def key(d, r_, s_):
        return d.u0.data.tobytes(), d.u1.data.tobytes(), r_, s_

    jobs = []           # per pair: None when skipped, else (d1, d2, r, s, data distance)
    uses = Counter()    # solved pairs per datum key
    for d1, d2 in pairs:
        r_, s_ = d1.r, d1.s
        f1 = to_first_order(d1)
        f2 = to_first_order(d2)
        ddist = sobolev_hat_norm(Spectrum(g.spatial, f1[0].data - f2[0].data), r_, s_) + \
            sobolev_hat_norm(Spectrum(g.spatial, f1[1].data - f2[1].data), r_, s_)
        if ddist == 0.0:
            jobs.append(None)
            continue
        jobs.append((d1, d2, r_, s_, ddist))
        uses.update((key(d1, r_, s_), key(d2, r_, s_)))
    reports = {}

    def report(d, r_, s_):
        k = key(d, r_, s_)
        if k not in reports:
            reports[k] = solve_local(*to_first_order(d), ns, cfg, r=r_, s=s_)
        rep = reports[k]
        uses[k] -= 1
        if uses[k] == 0:
            del reports[k]
        return rep

    ratios, skipped, failed = [], 0, 0
    rows = []
    for job in jobs:
        if job is None:
            skipped += 1
            rows.append({"ratio": None, "status": "skipped"})
            continue
        d1, d2, r_, s_, ddist = job
        rep1 = report(d1, r_, s_)
        rep2 = report(d2, r_, s_)
        if not (rep1.success and rep2.success):
            failed += 1
            rows.append({"ratio": None, "status": "no-contraction"})
            continue
        dp = rep1.result.sp - rep2.result.sp
        dm = rep1.result.sm - rep2.result.sm
        sdist = float(
            np.max(_slice_norms(g, dp, r_, s_)[core])
            + np.max(_slice_norms(g, dm, r_, s_)[core])
        )
        ratio = sdist / ddist
        ratios.append(ratio)
        rows.append({"ratio": ratio, "status": "ok"})
    return {
        "max_ratio": max(ratios) if ratios else None,
        "ratios": ratios,
        "rows": rows,
        "skipped": skipped,
        "failed": failed,
    }
