"""Acceptance suite: twelve criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; every
criterion is also asserted so the suite fails loudly.
"""

import filecmp
import time

import numpy as np
import pytest

from halfwave.bilinear import (
    PowerWeight,
    ReductionSpec,
    SignPair,
    reduction_integral,
    surface_mass,
)
from halfwave import solver as solver_mod
from halfwave.cli import main as cli_main
from halfwave.dyadic import shell_surface_mass
from halfwave.grid import (
    Field,
    SpacetimeField,
    SpacetimeGrid,
    SpatialGrid,
    Spectrum,
    forward_transform,
)
from halfwave.solver import (
    CauchyData,
    NonlinearitySpec,
    _slice_norms,
    default_config,
    flow_lipschitz_probe,
    from_first_order,
    picard_iterate,
    select_delta,
    solve_local,
    to_first_order,
)
from halfwave.verify import (
    check_key_estimate,
    check_lowfreq_young,
    check_strichartz_l2,
    sharpness_probe,
    surface_cross_check,
)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({name}): {status}  {detail}")
    return ok


def test_criterion_1_reduction_closed_forms():
    t0 = time.perf_counter()
    res = [
        reduction_integral(ReductionSpec(a=1.0, p=0.0, q=0.0, region="elliptic")),
        reduction_integral(ReductionSpec(a=1.0, p=-0.5, q=0.5, region="elliptic")),
        reduction_integral(ReductionSpec(a=0.0, p=-1.0, q=-1.0, region="hyperbolic-far")),
    ]
    v_const, v_pi, v_half = (r.value for r in res)
    dt = time.perf_counter() - t0
    ok = (
        all(r.converged for r in res)
        and v_const == pytest.approx(2.0, abs=1e-12)
        and v_pi == pytest.approx(np.pi, abs=1e-6)
        and v_half == pytest.approx(0.5, abs=1e-8)
        and dt < 1.0
    )
    assert _line(1, "reduction closed forms",
                 ok, f"2 err={abs(v_const - 2.0):.1e}, pi err={abs(v_pi - np.pi):.1e}, "
                     f"1/2 err={abs(v_half - 0.5):.1e}, {dt:.2f}s")


def test_criterion_2_elliptic_uniform_boundedness():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for r in (1.2, 1.5, 2.0):
        total = 2.0 / r
        for frac in (0.3, 0.5, 0.7):
            s1 = frac * total
            s2 = total - s1
            p, q = 1.0 - s1 * r, 1.0 - s2 * r  # p + q = 0
            res = {
                a: reduction_integral(ReductionSpec(a=a, p=p, q=q, region="elliptic"))
                for a in (1.0, 2.0, 10.0, 100.0, 1000.0)
            }
            vals = {a: r.value for a, r in res.items()}
            if not all(r.converged for r in res.values()):
                ok = False
            drift = abs(vals[100.0] - vals[1000.0]) / vals[1000.0]
            worst = max(worst, drift)
            if drift >= 0.01:
                ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert _line(2, "elliptic uniform boundedness", ok,
                 f"max tail drift {worst:.2e}, {dt:.2f}s")


def test_criterion_3_shell_mass_growth():
    t0 = time.perf_counter()
    xi = np.array([2000.0, 0.0, 0.0])
    ks = np.arange(2, 7)
    res = [shell_surface_mass(xi, 2004.0, SignPair(+1, +1), int(k), 1.0, n0=64)
           for k in ks]
    slope = float(np.polyfit(ks, np.log2([r.value for r in res]), 1)[0])
    dt = time.perf_counter() - t0
    ok = abs(slope - 2.0) <= 0.1 and all(r.converged for r in res) and dt < 120.0
    assert _line(3, "shell surface-mass growth", ok, f"slope {slope:.3f}, {dt:.2f}s")


def test_criterion_4_q_region_scaling():
    t0 = time.perf_counter()
    ok = True
    details = []
    for r, s1, s2 in [(2.0, 0.9, 0.9), (1.5, 0.8, 0.867)]:
        a1, a2 = s1 * r, s2 * r
        pred = 2.0 - (s1 + s2) * r
        rhos = (16.0, 32.0, 64.0, 128.0)
        vals = []
        for rho in rhos:
            res = surface_mass(
                np.array([rho, 0.0, 0.0]), 0.5 * rho, SignPair(+1, -1),
                PowerWeight(e1=-a1, e2=-a2), h=1.0,
                box_center=np.zeros(3), box_radius=2.5 * rho, n0=96, max_refine=2,
            )
            vals.append(res.value)
            if not res.converged:
                ok = False
        slope = float(np.polyfit(np.log2(rhos), np.log2(vals), 1)[0])
        details.append(f"{slope:.3f} vs {pred:.3f}")
        if abs(slope - pred) > 0.1:
            ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    assert _line(4, "Q-region scaling", ok, f"slopes {details}, {dt:.2f}s")


def test_criterion_5_key_estimate_boundedness():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for r, sigma, b in [(2.0, 1.25, 0.55), (1.5, 1.4, 0.72)]:
        for signs in (SignPair(+1, +1), SignPair(+1, -1)):
            for kind in ("gaussian-bump", "shell-concentrated"):
                rep = check_key_estimate(r, sigma, b, signs=signs, kind=kind,
                                         lams=(2.0, 4.0, 8.0, 16.0), n=16)
                spread = max(rep.params["spread_free"], rep.params["spread_full"])
                worst = max(worst, spread)
                if not rep.passed:
                    ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    assert _line(5, "key estimate boundedness", ok,
                 f"worst spread {worst:.2f} (limit 3), {dt:.1f}s")


def test_criterion_6_sharpness_below_threshold():
    t0 = time.perf_counter()
    grow = sharpness_probe(2.0, 0.5)
    ctrl = sharpness_probe(2.0, 1.25)
    dt = time.perf_counter() - t0
    ok = grow.exponent >= 0.4 and ctrl.exponent <= 0.1 and dt < 300.0
    assert _line(6, "sharpness below threshold", ok,
                 f"exponent {grow.exponent:.3f} (>=0.4), control {ctrl.exponent:.3f} "
                 f"(<=0.1), {dt:.1f}s")


def test_criterion_7_surface_formula_cross_validation():
    t0 = time.perf_counter()
    rep = surface_cross_check(n_probes=3)
    dt = time.perf_counter() - t0
    ok = bool(rep.passed) and rep.params["max_deviation"] <= 0.05 and dt < 180.0
    assert _line(7, "surface-formula cross-validation", ok,
                 f"max deviation {rep.params['max_deviation'] * 100:.2f}% "
                 f"over {len(rep.rows)} probes, {dt:.1f}s")


def _solver_setup(n, m, amp=0.01):
    sg = SpatialGrid(n, 2 * np.pi)
    g = SpacetimeGrid(sg, m, 1.0)
    xi = sg.xi_modulus()
    u0 = Spectrum(sg, amp * np.exp(-(xi**2) / 2.0))
    u1 = Spectrum(sg, 0.5 * amp * np.exp(-(xi**2) / 2.0))
    return g, CauchyData(u0, u1, 2.0, 1.0)


_MANUFACTURED_AMP = 0.02


def _manufactured_solve(n, m):
    """(grid, solve report, exact u) for the manufactured solution
    u = amp cos(1.5 t) cos(x1) of Box u = d_x1(u^2) + S, at delta = 0.25."""
    sg = SpatialGrid(n, 2 * np.pi)
    q, om, amp = 1.0, 1.5, _MANUFACTURED_AMP
    g = SpacetimeGrid(sg, m, 1.0)
    x1 = sg.x_axis[:, None, None]
    t = g.t_axis[:, None, None, None]
    u = amp * np.cos(om * t) * np.cos(q * x1)[None] * np.ones((1,) + sg.shape)
    ut = -amp * om * np.sin(om * t) * np.cos(q * x1)[None] * np.ones((1,) + sg.shape)
    b = -amp**2 * np.cos(om * t) ** 2 * q * np.sin(2 * q * x1)[None] * np.ones((1,) + sg.shape)
    src = SpacetimeField(g, ((q * q - om * om) * u - b).astype(complex))
    d = CauchyData(
        forward_transform(Field(sg, u[g.origin_index].astype(complex))),
        forward_transform(Field(sg, ut[g.origin_index].astype(complex))),
    )
    fp, fm = to_first_order(d)
    rep = solve_local(fp, fm, NonlinearitySpec(1, "x1"), default_config(g, 0.25), source=src)
    return g, rep, u


def test_criterion_8_solver_contraction_and_residual():
    t0 = time.perf_counter()
    ok = True
    details = []
    for k, deriv in ((1, "x1"), (2, "t")):
        g, d = _solver_setup(32, 64)
        fp, fm = to_first_order(d)
        res = picard_iterate(fp, fm, NonlinearitySpec(k, deriv),
                             default_config(g, 0.25))
        if not res.converged or any(rho >= 0.5 for rho in res.rhos):
            ok = False
        details.append(f"k={k} rho1={res.rhos[0]:.3f}")
        # roundtrip identity
        v0, v1 = from_first_order(fp, fm)
        if np.abs(v0.data - d.u0.data).max() > 1e-12:
            ok = False
    # manufactured-solution refinement at N = 32
    residuals = []
    for m in (32, 64):
        g, rep, _ = _manufactured_solve(32, m)
        if not rep.success:
            ok = False
        residuals.append(rep.residual)
        # reconstruction identity: d_t u by differences vs evolution identity
        fd = (rep.u.data[2:] - rep.u.data[:-2]) / (2.0 * g.dt)
        if np.abs(fd - rep.dtu.data[1:-1]).max() > 100.0 * g.dt**2:
            ok = False
    ratio = residuals[0] / residuals[1]
    if ratio < 3.0:
        ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    assert _line(8, "solver contraction + residual", ok,
                 f"{', '.join(details)}, refinement x{ratio:.1f} (>=3), {dt:.1f}s")


def test_criterion_9_lipschitz_flow_probe():
    t0 = time.perf_counter()
    g, d = _solver_setup(16, 64)
    ns = NonlinearitySpec(1, "x1")
    cfg = default_config(g, 0.25)
    rng = np.random.default_rng(0)
    xi = g.spatial.xi_modulus()
    envelope = np.exp(-(xi**2) / 2.0)
    maxima = {}
    for scale in (1.0, 0.5):
        pairs = []
        for _ in range(8):
            pert = scale * 1e-3 * (
                rng.standard_normal(g.spatial.shape)
                + 1j * rng.standard_normal(g.spatial.shape)
            ) * envelope
            d2 = CauchyData(Spectrum(g.spatial, d.u0.data + pert), d.u1, 2.0, 1.0)
            pairs.append((d, d2))
        out = flow_lipschitz_probe(pairs, ns, cfg)
        maxima[scale] = out["max_ratio"]
    stable = abs(maxima[0.5] / maxima[1.0] - 1.0) <= 0.3
    deltas = []
    for amp in (0.01, 1.0, 100.0):
        dd = _solver_setup(16, 64, amp=amp)[1]
        delta, _ = select_delta(dd, ns, g)
        deltas.append(delta)
    monotone = all(a >= b for a, b in zip(deltas, deltas[1:]))
    dt = time.perf_counter() - t0
    ok = stable and monotone and dt < 600.0
    assert _line(9, "Lipschitz flow probe", ok,
                 f"max ratio {maxima[1.0]:.3f} -> {maxima[0.5]:.3f}, "
                 f"delta table {['%.3f' % x for x in deltas]}, {dt:.1f}s")


def test_criterion_10_lowfreq_and_strichartz():
    t0 = time.perf_counter()
    low = check_lowfreq_young(1.5)
    stz = check_strichartz_l2(0.55, 0.55)
    dt = time.perf_counter() - t0
    ok = (
        bool(low.passed) and low.spread <= 2.0
        and bool(stz.passed) and stz.spread <= 3.0
        and dt < 120.0
    )
    assert _line(10, "low-frequency + Strichartz input", ok,
                 f"spreads {low.spread:.2f} (<=2), {stz.spread:.2f} (<=3), {dt:.1f}s")


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["--seed", "3", "--set", "family.kind=random-bandlimited",
            "lemma", "--suite", "elliptic"]
    code1 = cli_main(["--out", str(tmp_path / "a"), *args])
    code2 = cli_main(["--out", str(tmp_path / "b"), *args])
    same_csv = filecmp.cmp(tmp_path / "a" / "lemma.csv", tmp_path / "b" / "lemma.csv",
                           shallow=False)
    same_json = filecmp.cmp(tmp_path / "a" / "lemma.json", tmp_path / "b" / "lemma.json",
                            shallow=False)
    dt = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and same_csv and same_json
    assert _line(11, "determinism", ok,
                 f"csv identical {same_csv}, json identical {same_json}, {dt:.1f}s")


def _criterion_12_parts():
    """Each part of criterion 12 with its pass flag, and the measured numbers.

    The manufactured solution of criterion 8, at 16^3, is compared with the
    solver's u over the core.  The quadratic response
    Q(eps) = sup_{|t| <= delta} ||u(2 eps d) - 2 u(eps d)|| / eps^2 is taken
    over both components with the solver's slice norms; a solver whose
    bilinear term vanishes gives Q = 0 and an error that does not fall in M.
    """
    parts, details = {}, []
    errors = []
    for m in (32, 64):
        g, rep, u = _manufactured_solve(16, m)
        core = np.abs(g.t_axis) <= 0.25 + 1e-12
        errors.append(float(np.max(np.abs(rep.u.data[core] - u[core]))) / _MANUFACTURED_AMP)
    parts["manufactured error <= 1e-5"] = max(errors) <= 1e-5
    parts["error falls >= 3x"] = errors[0] >= 3.0 * errors[1]
    details.append(f"error {errors[0]:.2e} -> {errors[1]:.2e}")
    g, _ = _solver_setup(16, 64)
    cfg = default_config(g, 0.25)
    core = np.abs(g.t_axis) <= 0.25 + 1e-12
    for k, deriv in ((1, "x1"), (1, "t"), (2, "x1"), (2, "t")):
        ns = NonlinearitySpec(k, deriv)
        sols = {eps: picard_iterate(*to_first_order(_solver_setup(16, 64, amp=eps)[1]), ns, cfg)
                for eps in (0.2, 0.1, 0.05, 0.025)}
        qs = []
        for eps in (0.1, 0.05, 0.025):
            big, small = sols[2 * eps], sols[eps]
            dist = (_slice_norms(g, big.sp - 2 * small.sp, 2.0, 1.0)
                    + _slice_norms(g, big.sm - 2 * small.sm, 2.0, 1.0))
            qs.append(float(np.max(dist[core])) / eps**2)
        parts[f"k={k} d{deriv} Q >= 1e-3"] = min(qs) >= 1e-3
        parts[f"k={k} d{deriv} Q varies <= 2%"] = min(qs) > 0 and max(qs) <= 1.02 * min(qs)
        details.append(f"k={k} d{deriv} Q {qs[0]:.4g} -> {qs[-1]:.4g}")
    return parts, details


def test_criterion_12_solver_is_nonlinear(monkeypatch):
    t0 = time.perf_counter()
    parts, details = _criterion_12_parts()
    dt = time.perf_counter() - t0
    # negative control: with B == 0 the solver is linear and every part fails
    monkeypatch.setattr(solver_mod, "_bilinear_spec",
                        lambda sp, sm, w, ns, g: np.zeros_like(sp))
    control, _ = _criterion_12_parts()
    ok = all(parts.values()) and not any(control.values()) and dt < 30.0
    assert _line(12, "solver is nonlinear", ok,
                 f"{', '.join(details)}, control fails {sum(not v for v in control.values())}"
                 f"/{len(control)} parts, {dt:.1f}s")
