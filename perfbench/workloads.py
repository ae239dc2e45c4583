"""The benchmark's three workloads as fixed, seeded lists of operations.

Every operation calls only names exported by `halfwave/__init__.py`, looked
up on the package at call time, and comes with a check of its output against
a reference from `reference.py` or a property the method must have.

A run is a fixed number of rounds; round r of a run with seed s draws its
inputs from `numpy.random.default_rng([s, workload, r])`.  The make-up of a
round (kinds of operation, lattices, which parameters are drawn from which
ranges) does not depend on the seed, so every run does the same work up to
the drawn values.  Draws that change the cost of an operation (amplitudes,
refinement-sensitive sizes) are kept in ranges where the cost is flat, so
that the draw adds little to the run-to-run spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import halfwave as hw
import reference as ref

WORKLOADS = ("solve", "surface", "estimates")

# Wall time of one round when the benchmark was written (2-core Xeon VM); a
# run of --seconds S does max(1, round(S / NOMINAL_ROUND_S)) rounds, so the
# operation list depends on S and the seed, never on the speed of the code.
NOMINAL_ROUND_S = {"solve": 28.0, "surface": 3.8, "estimates": 13.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def _rng(seed: int, workload: str, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def _unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------- solve

SOLVE_N, SOLVE_M, SOLVE_L, SOLVE_T = 16, 64, 2.0 * math.pi, 1.0
T0_TOL = 1e-9          # data reproduced at t = 0 (exact up to rounding)
SOLVE_DELTA = 0.25     # default_config radius of criteria 8 and 9

# (k, derivative, data kind, amplitude) of the four delta-selection solves;
# at these amplitudes the Picard iteration count of a round stays within
# 66-68 over every seed traced
SOLVE_CASES = (
    (1, "t", "gaussian", 0.05),
    (1, "x1", "random", 0.02),
    (2, "t", "random", 0.02),
    (2, "x1", "gaussian", 0.05),
)


def _spatial_grid():
    return hw.SpatialGrid(SOLVE_N, SOLVE_L)


def _gaussian_data(sg, amp, width, vel):
    xi = sg.xi_modulus()
    prof = np.exp(-(xi**2) / (2.0 * width**2))
    return hw.CauchyData(hw.Spectrum(sg, amp * prof), hw.Spectrum(sg, vel * amp * prof))


def _random_data(sg, amp, radius, vel, rng):
    xi = sg.xi_modulus()

    def draw():
        z = rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape)
        z = z * (xi <= radius)
        return amp * z / np.max(np.abs(z))

    return hw.CauchyData(hw.Spectrum(sg, draw()), hw.Spectrum(sg, vel * draw()))


def _t0_problems(rep, d, g) -> list:
    """The solution and its time derivative must equal the data at t = 0."""
    out = []
    i0 = g.origin_index
    L = g.spatial.half_length
    e_u = ref.relative_max_error(rep.u.data[i0], ref.lattice_inverse(d.u0.data, L))
    e_ut = ref.relative_max_error(rep.dtu.data[i0], ref.lattice_inverse(d.u1.data, L))
    if not (e_u <= T0_TOL and e_ut <= T0_TOL):
        out.append(f"data not reproduced at t=0: {e_u:.2e}, {e_ut:.2e}")
    return out


def _solve_op(case, rng) -> Op:
    k, deriv, kind, amp0 = case
    sg = _spatial_grid()
    g = hw.SpacetimeGrid(sg, SOLVE_M, SOLVE_T)
    amp = amp0 * math.exp(rng.uniform(-0.1, 0.1))
    vel = rng.uniform(0.3, 0.7)
    if kind == "gaussian":
        d = _gaussian_data(sg, amp, rng.uniform(0.8, 1.25), vel)
    else:
        d = _random_data(sg, amp, rng.uniform(1.5, 2.5), vel, rng)
    ns = hw.NonlinearitySpec(k, deriv)

    def run():
        delta, trace = hw.select_delta(d, ns, g)
        fp, fm = hw.to_first_order(d)
        return delta, trace, hw.solve_local(fp, fm, ns, hw.default_config(g, delta))

    def check(out):
        delta, trace, rep = out
        problems = []
        if not rep.success:
            problems.append(f"solve k={k} d={deriv} did not converge")
        if not trace or trace[-1]["rho1"] >= 0.9:
            problems.append("select_delta accepted no contracting delta")
        if not math.isfinite(rep.residual):
            problems.append("residual is not finite")
        return problems + _t0_problems(rep, d, g)

    return Op(f"solve_k{k}_{deriv}", run, check)


def _manufactured_ops(rng) -> list:
    """The same exact solution solved at M = 32 and M = 64.

    The error to the exact solution is second order in dt, so it must fall
    by at least 3x when M doubles (4.0x measured).
    """
    k, deriv = ref.NONLINEARITIES[int(rng.integers(len(ref.NONLINEARITIES)))]
    q = float(rng.choice([0.5, 1.0]))     # lattice modes; 2q stays dealiased
    om = rng.uniform(1.2, 1.6)
    amp = rng.uniform(0.015, 0.03)
    errors = {}
    ops = []
    for m in (32, 64):
        ops.append(_manufactured_op(k, deriv, q, om, amp, m, errors))
    return ops


def _manufactured_op(k, deriv, q, om, amp, m, errors) -> Op:
    sg = _spatial_grid()
    g = hw.SpacetimeGrid(sg, m, SOLVE_T)
    x1 = sg.x_axis[:, None, None]
    t = g.t_axis[:, None, None, None]
    full = np.ones((1,) + sg.shape)
    u, ut, _, src = (a * full for a in ref.manufactured(k, deriv, q, om, amp, x1, t))
    i0 = g.origin_index
    d = hw.CauchyData(
        hw.forward_transform(hw.Field(sg, u[i0].astype(complex))),
        hw.forward_transform(hw.Field(sg, ut[i0].astype(complex))),
    )
    source = hw.SpacetimeField(g, src.astype(complex))
    ns = hw.NonlinearitySpec(k, deriv)

    def run():
        fp, fm = hw.to_first_order(d)
        return hw.solve_local(fp, fm, ns, hw.default_config(g, SOLVE_DELTA), source=source)

    def check(rep):
        problems = [] if rep.success else [f"manufactured solve M={m} did not converge"]
        core = np.abs(g.t_axis) <= SOLVE_DELTA
        err = float(np.max(np.abs(rep.u.data[core] - u[core]))) / amp
        errors[m] = err
        if not err < 1e-3:
            problems.append(f"manufactured error {err:.2e} at M={m}")
        if m == 64 and 32 in errors and not errors[32] >= 3.0 * err:
            problems.append(f"error fell only {errors[32] / err:.2f}x from M=32 to M=64")
        return problems + _t0_problems(rep, d, g)

    return Op(f"manufactured_m{m}", run, check)


def _probe_op(rng) -> Op:
    """Two pairs sharing one base datum, the second perturbation half the first."""
    sg = _spatial_grid()
    g = hw.SpacetimeGrid(sg, SOLVE_M, SOLVE_T)
    base = _gaussian_data(sg, 0.01 * math.exp(rng.uniform(-0.1, 0.1)),
                          rng.uniform(0.8, 1.25), 0.5)
    xi = sg.xi_modulus()
    pert = 1e-3 * (rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))
    pert *= np.exp(-(xi**2) / 2.0)
    pairs = [
        (base, hw.CauchyData(hw.Spectrum(sg, base.u0.data + scale * pert), base.u1))
        for scale in (1.0, 0.5)
    ]
    ns = hw.NonlinearitySpec(1, "x1")
    cfg = hw.default_config(g, SOLVE_DELTA)

    def run():
        return hw.flow_lipschitz_probe(pairs, ns, cfg)

    def check(out):
        problems = []
        if [row["status"] for row in out["rows"]] != ["ok", "ok"]:
            problems.append(f"probe rows {out['rows']}")
            return problems
        full, half = out["ratios"]
        # the sup over |t| <= delta includes t = 0, where the distance is the data distance
        if min(full, half) < 1.0 - 1e-9:
            problems.append(f"Lipschitz ratio below 1: {full}, {half}")
        if abs(half / full - 1.0) > 0.3:
            problems.append(f"halving the perturbation moved the ratio {full} -> {half}")
        return problems

    return Op("lipschitz_probe", run, check)


def _solve_round(rng) -> list:
    ops = [_solve_op(case, rng) for case in SOLVE_CASES]
    ops += _manufactured_ops(rng)
    ops.append(_probe_op(rng))
    return ops


def _solve_warmup(rng) -> Op:
    return _manufactured_ops(rng)[0]


# ------------------------------------------------------------------- surface

SURFACE_TOL = 0.01
ELLIPTIC_PER_ROUND = 8
SHELLS = tuple(range(2, 7))


def _elliptic_op(rng) -> Op:
    xi_norm = rng.uniform(0.5, 2.0)
    xi_vec = xi_norm * _unit_vector(rng)
    tau = xi_norm * rng.uniform(1.2, 3.0)
    e1, e2 = rng.uniform(-0.5, 1.0, 2)
    # h in (0.04, 0.06) tau: the n = 48 -> 96 step meets the tolerance, so
    # the cost of an operation does not jump with the draw
    h = rng.uniform(0.04, 0.06) * tau
    want = ref.ellipsoid_band_mass(xi_norm, tau, h, e1 + 1.0, e2 + 1.0)

    def run():
        return hw.surface_mass(xi_vec, tau, hw.SignPair(+1, +1), hw.PowerWeight(e1, e2),
                               h=h, tol=SURFACE_TOL)

    def check(res):
        if res.empty or not res.converged:
            return [f"elliptic mass empty={res.empty} converged={res.converged}"]
        err = abs(res.value / want - 1.0)
        if not err <= SURFACE_TOL:
            return [f"elliptic mass off the band reference by {err:.2e}"]
        return []

    return Op("elliptic_mass", run, check)


def _shell_ladder_op(rng, elliptic: bool) -> Op:
    """Criterion 3's ladder: shells k = 2..6 near a focus of a large surface."""
    xi_norm = rng.uniform(1500.0, 2500.0)
    xi_vec = xi_norm * _unit_vector(rng)
    gap = rng.uniform(3.0, 5.0)
    sp = hw.SignPair(+1, +1) if elliptic else hw.SignPair(+1, -1)
    tau = xi_norm + gap if elliptic else -(xi_norm - gap)

    def run():
        return [hw.shell_surface_mass(xi_vec, tau, sp, k, 1.0, n0=96) for k in SHELLS]

    def check(results):
        if not all(r.converged and not r.empty and r.value > 0 for r in results):
            return ["shell ladder has an empty or unconverged mass"]
        slope = float(np.polyfit(SHELLS, np.log2([r.value for r in results]), 1)[0])
        return [] if abs(slope - 2.0) <= 0.1 else [f"shell slope {slope:.3f}, want 2 +- 0.1"]

    return Op("shell_ladder_" + ("elliptic" if elliptic else "hyperbolic"), run, check)


def _surface_round(rng) -> list:
    ops = [_elliptic_op(rng) for _ in range(ELLIPTIC_PER_ROUND)]
    ops += [_shell_ladder_op(rng, True), _shell_ladder_op(rng, False)]
    return ops


def _surface_warmup(rng) -> Op:
    return _elliptic_op(rng)


# ----------------------------------------------------------------- estimates

# (r, sigma, b) of criterion 5; sigma > 2/r and b > 1/r
ESTIMATE_PARAMS = ((2.0, 1.25, 0.55), (1.5, 1.4, 0.72))
LADDER_KINDS = ("gaussian-bump", "shell-concentrated")
SPLIT_TOL = 1e-12


def _key_op(rng, signs) -> Op:
    r, sigma, b = ESTIMATE_PARAMS[int(rng.integers(2))]
    kind = LADDER_KINDS[int(rng.integers(2))]

    def run():
        return hw.check_key_estimate(r, sigma, b, signs=signs, kind=kind,
                                     lams=(2.0, 4.0, 8.0, 16.0), n=16)

    def check(rep):
        spreads = (rep.params.get("spread_free"), rep.params.get("spread_full"))
        if not (rep.passed and all(s is not None and s <= 3.0 for s in spreads)):
            return [f"key estimate spreads {spreads}"]
        return []

    return Op(f"key_estimate_{'ee' if signs.elliptic else 'hyp'}", run, check)


def _hyperbolic_op(rng) -> Op:
    r, sigma, _ = ESTIMATE_PARAMS[int(rng.integers(2))]
    seed = int(rng.integers(1 << 30))

    def run():
        return hw.check_hyperbolic_lemmas(r, sigma, kind="random-bandlimited",
                                          lams=(2.0, 4.0, 8.0), n=16, m=32, seed=seed)

    def check(rep):
        spreads = (rep.params.get("spread_P"), rep.params.get("spread_Q"))
        if not (rep.passed and all(s is not None and s <= 3.0 for s in spreads)):
            return [f"P/Q spreads {spreads}"]
        return []

    return Op("hyperbolic_lemmas", run, check)


def _split_op(rng) -> Op:
    """The P and Q masked products must sum to the unmasked product."""
    lam = float(rng.choice([2.0, 4.0, 8.0]))
    g, w = hw.scaling_grid(lam, n=16, m=32)
    fam_seed = int(rng.integers(1 << 30))
    fam = hw.DataFamily(kind="random-bandlimited", scale=lam)
    data_rng = np.random.default_rng(fam_seed)
    u0 = hw.family_spectrum(fam, g.spatial, data_rng)
    v0 = hw.family_spectrum(fam, g.spatial, data_rng)
    sp = hw.SignPair(+1, -1)

    def run():
        masks = hw.region_masks()
        sp_p = hw.bilinear_symbol_product(u0, v0, sp, masks["P"], g, w)
        sp_q = hw.bilinear_symbol_product(u0, v0, sp, masks["Q"], g, w)
        return sp_p, sp_q, hw.product_transform_direct(u0, v0, sp, g, w)

    def check(out):
        sp_p, sp_q, direct = out
        err = ref.relative_max_error(sp_p.data + sp_q.data, direct.data)
        return [] if err <= SPLIT_TOL else [f"P + Q differs from the direct product by {err:.2e}"]

    return Op("pq_split", run, check)


def _sharpness_op(rng, sigma) -> Op:
    kind = LADDER_KINDS[int(rng.integers(2))]
    base = math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
    lams = tuple(base * lam for lam in (4.0, 8.0, 16.0, 32.0))

    def run():
        return hw.sharpness_probe(2.0, sigma, kind=kind, lams=lams)

    def check(rep):
        e = rep.exponent
        ok = e is not None and (e >= 0.4 if sigma < 1.0 else e <= 0.1)
        return [] if ok else [f"sharpness exponent {e} at sigma={sigma}"]

    return Op(f"sharpness_{'below' if sigma < 1.0 else 'above'}", run, check)


def _extremizer_op(rng) -> Op:
    r, sigma, b = ESTIMATE_PARAMS[int(rng.integers(2))]
    signs = hw.SignPair(+1, +1) if rng.integers(2) == 0 else hw.SignPair(+1, -1)
    bounds = ((rng.uniform(0.8, 1.2), rng.uniform(5.0, 7.0)), (0.2, 3.0), (0.1, 1.0), (0.1, 1.0))
    seed = int(rng.integers(1 << 30))

    def run():
        return hw.extremizer_search(r, sigma, b, signs=signs, bounds=bounds, budget=60,
                                    n=12, m=16, seed=seed)

    def check(out):
        trace = out["trace"]
        problems = []
        if not (math.isfinite(out["best_ratio"]) and out["best_ratio"] > 0):
            problems.append(f"best ratio {out['best_ratio']}")
        if len(trace) != out["evaluations"] or any(b < a for a, b in zip(trace, trace[1:])):
            problems.append("extremizer trace is not a non-decreasing record of every evaluation")
        return problems

    return Op("extremizer", run, check)


def _estimates_round(rng) -> list:
    return [
        _key_op(rng, hw.SignPair(+1, +1)),
        _key_op(rng, hw.SignPair(+1, -1)),
        _hyperbolic_op(rng),
        _split_op(rng),
        _sharpness_op(rng, 0.5),
        _sharpness_op(rng, 1.25),
        _extremizer_op(rng),
    ]


def _estimates_warmup(rng) -> Op:
    return _sharpness_op(rng, 0.5)


_ROUND = {"solve": _solve_round, "surface": _surface_round, "estimates": _estimates_round}
_WARMUP = {"solve": _solve_warmup, "surface": _surface_warmup, "estimates": _estimates_warmup}
WARMUP_STREAM = 1 << 20


def build_rounds(workload: str, seed: int, n_rounds: int) -> list:
    """The run's operation list, one inner list per round."""
    return [_ROUND[workload](_rng(seed, workload, r)) for r in range(n_rounds)]


def build_warmup(workload: str, seed: int) -> Op:
    """One untimed operation of the workload, from a stream no round uses."""
    return _WARMUP[workload](_rng(seed, workload, WARMUP_STREAM))
