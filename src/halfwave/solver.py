"""Pseudospectral Picard solver for the quadratic wave equation.

The second-order problem Box u = B_k(u, u) is rewritten as a first-order
system for u_pm = u +- i J^{-1} u_t, which the iteration solves with the
exponential integrator; the nonlinearity is evaluated pointwise with
2/3-rule dealiasing.  The iterates are kept as spatial spectral slices,
shape (M, N, N, N); configuration space is visited only for the pointwise
product.  Correctness is judged convention-free through the Box residual
and through contraction diagnostics.
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
    SpatialGrid,
    Spectrum,
    spatial_forward_slices,
    spatial_inverse_slices,
    time_forward,
)
from .propagator import EvolutionSpec, duhamel, free_slices
from .spaces import (
    NormParams,
    WindowSpec,
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
    k1, k2, k3 = sg.xi_mesh()
    jinv = 1.0 / np.sqrt(1.0 + k1**2 + k2**2 + k3**2)
    shift = 1j * jinv * d.u1.data
    return Spectrum(sg, d.u0.data + shift), Spectrum(sg, d.u0.data - shift)


def from_first_order(fp: Spectrum, fm: Spectrum) -> tuple[Spectrum, Spectrum]:
    """Exact inverse of to_first_order."""
    if fp.grid != fm.grid:
        raise GridMismatchError("the two components live on different lattices")
    sg = fp.grid
    k1, k2, k3 = sg.xi_mesh()
    j = np.sqrt(1.0 + k1**2 + k2**2 + k3**2)
    u0 = (fp.data + fm.data) / 2.0
    u1 = j * (fp.data - fm.data) / (2.0 * 1j)
    return Spectrum(sg, u0), Spectrum(sg, u1)


def _dealias_mask(sg: SpatialGrid) -> np.ndarray:
    k1, k2, k3 = sg.xi_mesh()
    cut = (2.0 / 3.0) * sg.nyquist
    return (np.abs(k1) < cut) & (np.abs(k2) < cut) & (np.abs(k3) < cut)


def _jinv_slices(g: SpacetimeGrid, spec_slices: np.ndarray) -> np.ndarray:
    xi = g.spatial.xi_modulus()
    return spec_slices / np.sqrt(1.0 + xi**2)[None]


def _spatial_derivative(g: SpacetimeGrid, spec_slices: np.ndarray, axis: int) -> np.ndarray:
    ax = g.spatial.xi_axis
    shape = [1, 1, 1, 1]
    shape[axis + 1] = g.spatial.n
    return 1j * ax.reshape(shape) * spec_slices


def _dt_w_slices(g: SpacetimeGrid, sp: np.ndarray, sm: np.ndarray) -> np.ndarray:
    """Spectral slices of d_t(u_+ + u_-) via the evolution identity -iJ(u_+ - u_-)."""
    xi = g.spatial.xi_modulus()
    return -1j * np.sqrt(1.0 + xi**2)[None] * (sp - sm)


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
    space.  Spatial derivatives are spectral; d_t w always comes from the
    evolution identity, never from differencing.  Products are 2/3-rule
    dealiased.
    """
    for a in (sp, sm) if source is None else (sp, sm, source):
        if np.shape(a) != g.shape:
            raise GridMismatchError(
                f"rhs slices of shape {np.shape(a)} do not match the grid {g.shape}"
            )
    mask = _dealias_mask(g.spatial)[None]
    sw = sp + sm

    if ns.k == 1:
        w_cfg = spatial_inverse_slices(g, mask * sw).data
        if ns.derivative == "t":
            # d_t(w^2) = 2 w d_t w, with d_t w from the evolution identity
            dtw = spatial_inverse_slices(g, mask * _dt_w_slices(g, sp, sm)).data
            bspec = mask * spatial_forward_slices(SpacetimeField(g, 2.0 * w_cfg * dtw))
        else:
            pspec = mask * spatial_forward_slices(SpacetimeField(g, w_cfg * w_cfg))
            bspec = _spatial_derivative(g, pspec, _DERIVS.index(ns.derivative) - 1)
    else:
        if ns.derivative == "t":
            dspec = _dt_w_slices(g, sp, sm)
        else:
            dspec = _spatial_derivative(g, sw, _DERIVS.index(ns.derivative) - 1)
        dw = spatial_inverse_slices(g, mask * dspec).data
        bspec = mask * spatial_forward_slices(SpacetimeField(g, dw * dw))

    bracket = bspec / 4.0 + sw / 2.0
    if source is not None:
        bracket = bracket + source
    gm = _jinv_slices(g, bracket)
    return -gm, gm


def _slice_weight(g: SpacetimeGrid, r: float, s: float) -> np.ndarray:
    """<xi>^(s r'), the lattice weight of the data-space norm."""
    xi = g.spatial.xi_modulus()
    return np.sqrt(1.0 + xi**2) ** (s * dual_exponent(r))


def _slice_norms(
    g: SpacetimeGrid,
    spec_slices: np.ndarray,
    r: float,
    s: float,
    wt: np.ndarray | None = None,
) -> np.ndarray:
    """sobolev_hat_norm of every time slice, vectorized; wt is _slice_weight(g, r, s)."""
    rp = dual_exponent(r)
    if wt is None:
        wt = _slice_weight(g, r, s)
    totals = np.sum(wt[None] * np.abs(spec_slices) ** rp, axis=(1, 2, 3))
    return (totals * g.spatial.dxi**3) ** (1.0 / rp)


def _core_slices(g: SpacetimeGrid, delta: float) -> np.ndarray:
    return np.abs(g.t_axis) <= delta + 1e-12


@dataclass
class PicardResult:
    """Final iterates as spatial spectral slices (sp, sm), plus diagnostics.

    up and um are the same iterates in configuration space, transformed on
    first access.
    """

    grid: SpacetimeGrid
    sp: np.ndarray
    sm: np.ndarray
    distances: list = dc_field(default_factory=list)
    restricted_distances: list = dc_field(default_factory=list)
    rhos: list = dc_field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    iterations: int = 0

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
    source: SpacetimeField | None = None,
    nonlinear: bool = True,
) -> PicardResult:
    """Contraction iteration u^{(n+1)} = free flow + Duhamel(g(u^{(n)})).

    The iterates are kept as spatial spectral slices.  Distances between
    consecutive iterates are measured as the sup over |t| <= delta of the
    data-space norm (both components) and as the windowed space-time
    restriction norm; rho_n is their step ratio.  Three consecutive growing
    distances, or one non-finite distance, flag divergence.
    """
    g = cfg.grid
    # loop invariants; the window only scales time, so it commutes with the
    # spatial transform and applies to spectral slices directly
    window = window_values(cfg.window, g.t_axis)[:, None, None, None]
    core = _core_slices(g, cfg.delta)
    params = NormParams(r, s, cfg.b, +1)
    slice_wt = _slice_weight(g, r, s)
    xsb_wt = _xsb_weight(g, params)
    src = None if source is None else spatial_forward_slices(source)
    free_p = free_slices(fp, g, EvolutionSpec("J", +1))
    free_m = free_slices(fm, g, EvolutionSpec("J", -1))

    def sup_norm(diff):
        return np.max(_slice_norms(g, diff, r, s, slice_wt)[core])

    def restricted(diff):
        # upper bound for the [-delta, delta] restriction norm via one window
        spec = SpacetimeSpectrum(g, time_forward(g, window * diff))
        return xsb_norm(spec, params, weight=xsb_wt)

    sp, sm = free_p, free_m
    result = PicardResult(g, sp, sm)
    grew = 0
    for n in range(cfg.max_iter):
        if nonlinear:
            gp, gm = rhs_eval(sp, sm, ns, g, source=src)
        else:
            gp, gm = _drop_bilinear(sp, sm, g, src)
        new_p = free_p + duhamel(window * gp, +1, g)
        new_m = free_m + duhamel(window * gm, -1, g)
        diff_p = new_p - sp
        diff_m = new_m - sm
        d = float(sup_norm(diff_p) + sup_norm(diff_m))
        dr = restricted(diff_p) + restricted(diff_m)
        if result.distances:
            prev = result.distances[-1]
            result.rhos.append(d / prev if prev > 0 else 0.0)
            grew = grew + 1 if d > prev else 0
        result.distances.append(d)
        result.restricted_distances.append(dr)
        sp, sm = new_p, new_m
        result.iterations = n + 1
        if not (math.isfinite(d) and math.isfinite(dr)):
            result.diverged = True
            break
        if d <= cfg.tol:
            result.converged = True
            break
        if grew >= 3:
            result.diverged = True
            break
    result.sp, result.sm = sp, sm
    return result


def _drop_bilinear(sp, sm, g, source):
    """Linear-system right side (the B_k term removed), for linear reference runs."""
    bracket = (sp + sm) / 2.0
    if source is not None:
        bracket = bracket + source
    gm = _jinv_slices(g, bracket)
    return -gm, gm


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
    b_cfg: np.ndarray,
    core: np.ndarray,
) -> tuple[float, float]:
    """RMS of Box u - B over interior core slices; d_t^2 by 4th-order differences."""
    dt2 = g.dt**2
    utt = np.full_like(u_spec, np.nan)
    utt[2:-2] = (
        -u_spec[:-4] + 16 * u_spec[1:-3] - 30 * u_spec[2:-2] + 16 * u_spec[3:-1] - u_spec[4:]
    ) / (12.0 * dt2)
    xi2 = g.spatial.xi_modulus()[None] ** 2
    box = utt + xi2 * u_spec  # -Laplacian has symbol |xi|^2
    b_spec = spatial_forward_slices(SpacetimeField(g, b_cfg))
    idx = core.copy()
    idx[:2] = idx[-2:] = False
    resid = box[idx] - b_spec[idx]
    scale = float(np.sqrt(np.mean(np.abs(b_spec[idx]) ** 2))) if idx.any() else 0.0
    return float(np.sqrt(np.mean(np.abs(resid) ** 2))), scale


def _bilinear_of_u(u_spec, dtu_spec, g, ns) -> np.ndarray:
    """B_k(u, u) in configuration space from spectral slices of u and d_t u."""
    mask = _dealias_mask(g.spatial)[None]
    u_cfg = spatial_inverse_slices(g, mask * u_spec).data
    if ns.k == 1:
        if ns.derivative == "t":
            dtu_cfg = spatial_inverse_slices(g, mask * dtu_spec).data
            return 2.0 * u_cfg * dtu_cfg
        pspec = mask * spatial_forward_slices(SpacetimeField(g, u_cfg * u_cfg))
        d = _spatial_derivative(g, pspec, _DERIVS.index(ns.derivative) - 1)
        return spatial_inverse_slices(g, d).data
    if ns.derivative == "t":
        dspec = mask * dtu_spec
    else:
        dspec = mask * _spatial_derivative(g, u_spec, _DERIVS.index(ns.derivative) - 1)
    du = spatial_inverse_slices(g, dspec).data
    return du * du


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
    the Z-norm diagnostic (both regularities of the pair (u, d_t u)).
    """
    result = picard_iterate(fp, fm, ns, cfg, r=r, s=s, source=source)
    g = cfg.grid
    sp, sm = result.sp, result.sm
    u_spec = (sp + sm) / 2.0
    dtu_spec = _dt_w_slices(g, sp, sm) / 2.0
    u = spatial_inverse_slices(g, u_spec)
    dtu = spatial_inverse_slices(g, dtu_spec)

    core = _core_slices(g, cfg.delta)
    b_cfg = _bilinear_of_u(u_spec, dtu_spec, g, ns)
    if source is not None:
        b_cfg = b_cfg + source.data
    residual, scale = _box_residual(u_spec, g, b_cfg, core)

    norms = _slice_norms(g, sp, r, s) + _slice_norms(g, sm, r, s)
    pers = norms[core]
    jumps = np.abs(np.diff(pers))
    z_value = None
    if ns.k == 2:
        z_value = z_norm(u, dtu, NormParams(r, s, cfg.b, +1))
    success = result.converged and not result.diverged
    return SolveReport(
        result=result,
        u=u,
        dtu=dtu,
        residual=residual,
        residual_scale=scale,
        persistence=pers,
        max_jump=float(jumps.max()) if jumps.size else 0.0,
        z_value=z_value,
        success=success,
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
