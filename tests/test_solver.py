"""First-order reformulation, Picard contraction, residual consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.fft

from halfwave import solver as solver_mod
from halfwave.errors import GridMismatchError, ParameterError
from halfwave.grid import (
    Field,
    SpacetimeField,
    SpacetimeGrid,
    SpacetimeSpectrum,
    SpatialGrid,
    Spectrum,
    conj_reflect,
    forward_transform,
    hermitian_full,
    reflect,
    spatial_forward_slices,
    spatial_inverse_slices,
    time_forward,
)
from halfwave.propagator import EvolutionSpec, _duhamel, duhamel, free_slices
from halfwave.solver import (
    CauchyData,
    NonlinearitySpec,
    SolveConfig,
    _slice_norms,
    default_config,
    flow_lipschitz_probe,
    from_first_order,
    picard_iterate,
    rhs_eval,
    select_delta,
    solve_local,
    to_first_order,
)
from halfwave.spaces import (
    NormParams,
    WindowSpec,
    _sobolev_weight,
    _xsb_weight,
    _xsb_weight_table,
    dual_exponent,
    window_values,
    xsb_norm,
)


@pytest.fixture
def sg():
    return SpatialGrid(16, 2 * np.pi)


@pytest.fixture
def stg(sg):
    return SpacetimeGrid(sg, 64, 1.0)


def _gaussian_data(sg, amp=0.01, seed=None):
    xi = sg.xi_modulus()
    u0 = Spectrum(sg, amp * np.exp(-(xi**2) / 2.0))
    u1 = Spectrum(sg, 0.5 * amp * np.exp(-(xi**2) / 2.0))
    return CauchyData(u0, u1, 2.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8).map(lambda k: 2 * k), half_length=st.floats(0.5, 20.0),
       seed=st.integers(0, 2**16))
def test_first_order_roundtrip(n, half_length, seed):
    sg = SpatialGrid(n, half_length)
    rng = np.random.default_rng(seed)
    u0 = Spectrum(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))
    u1 = Spectrum(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))
    fp, fm = to_first_order(CauchyData(u0, u1))
    v0, v1 = from_first_order(fp, fm)
    assert np.abs(v0.data - u0.data).max() < 1e-12
    assert np.abs(v1.data - u1.data).max() < 1e-12


def test_first_order_special_cases(sg):
    z = Spectrum(sg, np.zeros(sg.shape, complex))
    u0 = Spectrum(sg, np.ones(sg.shape, complex))
    fp, fm = to_first_order(CauchyData(u0, z))
    assert np.array_equal(fp.data, fm.data)          # u1 = 0: f+ = f- = u0
    fp, fm = to_first_order(CauchyData(z, u0))
    assert np.abs(fp.data + fm.data).max() < 1e-15   # u0 = 0: f+ = -f-


def test_nonlinearity_validation():
    with pytest.raises(ParameterError):
        NonlinearitySpec(3, "x1")
    with pytest.raises(ParameterError):
        NonlinearitySpec(1, "x4")


def test_config_validation(stg):
    with pytest.raises(ParameterError):
        SolveConfig(stg, -0.1, WindowSpec(support=0.5))
    with pytest.raises(ParameterError):
        # delta outside the window flat core
        SolveConfig(stg, 0.45, WindowSpec(support=0.5, flat_fraction=0.5))


def test_rhs_zero_and_antisymmetry(stg):
    g = stg
    z = np.zeros(g.shape, complex)
    gp, gm = rhs_eval(z, z, NonlinearitySpec(1, "x1"), g)
    assert np.abs(gp).max() == 0.0
    rng = np.random.default_rng(1)
    sp = spatial_forward_slices(SpacetimeField(g, rng.standard_normal(g.shape) + 0j))
    sm = spatial_forward_slices(SpacetimeField(g, rng.standard_normal(g.shape) + 0j))
    for ns in (NonlinearitySpec(1, "x2"), NonlinearitySpec(2, "t")):
        gp, gm = rhs_eval(sp, sm, ns, g)
        assert np.abs(gp + gm).max() < 1e-12 * max(np.abs(gp).max(), 1.0)
    with pytest.raises(GridMismatchError):
        rhs_eval(sp[:-1], sm[:-1], NonlinearitySpec(1, "x1"), g)


def test_rhs_two_mode_hand_convolution(sg):
    """B_1 with d = d_x1 on w = 2 cos(x1): d_x1(w^2) = -4 sin(2 x1)."""
    g = SpacetimeGrid(sg, 4, 1.0)
    x1 = np.meshgrid(sg.x_axis, sg.x_axis, sg.x_axis, indexing="ij")[0]
    w_cfg = 2.0 * np.cos(x1)
    up = SpacetimeField(g, np.broadcast_to(w_cfg[None], (g.m,) + sg.shape).astype(complex))
    sm = np.zeros((g.m,) + sg.shape, complex)
    gp, gm = rhs_eval(spatial_forward_slices(up), sm, NonlinearitySpec(1, "x1"), g)
    # g- = J^{-1}(B/4 + w/2); B = d(w^2) = -4 sin(2 x1)
    xi = sg.xi_modulus()
    j = np.sqrt(1 + xi**2)
    b_exact = -4.0 * np.sin(2.0 * x1)
    expect_spec = (
        spatial_forward_slices(SpacetimeField(g, np.broadcast_to(
            (b_exact / 4.0 + w_cfg / 2.0)[None], (g.m,) + sg.shape).astype(complex)))
        / j[None]
    )
    got_spec = gm
    assert np.abs(got_spec - expect_spec).max() < 1e-10 * np.abs(expect_spec).max()


def test_zero_data_fixed_point(stg):
    z = Spectrum(stg.spatial, np.zeros(stg.spatial.shape, complex))
    cfg = default_config(stg, 0.25)
    res = picard_iterate(z, z, NonlinearitySpec(1, "x1"), cfg)
    assert res.converged
    assert np.abs(res.up.data).max() == 0.0


def test_linear_flow_unitary(stg):
    """With the nonlinearity dropped the data-space norm is t-independent
    for the pure free flow (iterate 0)."""
    from halfwave.propagator import EvolutionSpec, free_spacetime

    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    u = free_spacetime(fp, stg, EvolutionSpec("J", +1))
    norms = _slice_norms(stg, spatial_forward_slices(u), 2.0, 1.0)
    assert norms.std() / norms.mean() < 1e-12


def test_contraction_small_data(stg):
    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    cfg = default_config(stg, 0.25)
    res = picard_iterate(fp, fm, NonlinearitySpec(1, "x1"), cfg)
    assert res.converged and not res.diverged
    assert all(rho < 0.5 for rho in res.rhos)
    assert res.restricted_distances[0] > res.restricted_distances[-1]


def test_nonfinite_distances_diverge():
    """Overflowing iterates stop at the first non-finite distance as diverged."""
    stg = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    fp, fm = to_first_order(_gaussian_data(stg.spatial, amp=1e60))
    with np.errstate(over="ignore", invalid="ignore"):
        res = picard_iterate(fp, fm, NonlinearitySpec(1, "x1"), default_config(stg, 0.25))
    assert res.diverged and not res.converged
    assert res.iterations <= 3
    assert not np.isfinite(res.distances[-1]) or not np.isfinite(res.restricted_distances[-1])


def test_picard_status(stg):
    """One status says why the loop stopped; converged and diverged follow it."""
    ns = NonlinearitySpec(1, "x1")
    fp, fm = to_first_order(_gaussian_data(stg.spatial))
    res = picard_iterate(fp, fm, ns, default_config(stg, 0.25))
    assert res.status == "converged" and res.converged and not res.diverged
    cfg = default_config(stg, 0.25, max_iter=2, tol=0.0)
    res = picard_iterate(fp, fm, ns, cfg)
    assert res.status == "unconverged" and not res.converged and not res.diverged
    assert res.iterations == 2
    assert not solve_local(fp, fm, ns, cfg).success
    small = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    for amp, status in ((1e6, "diverged"), (1e60, "nonfinite")):
        fp, fm = to_first_order(_gaussian_data(small.spatial, amp=amp))
        with np.errstate(over="ignore", invalid="ignore"):
            res = picard_iterate(fp, fm, ns, default_config(small, 0.25))
        assert res.status == status and res.diverged and not res.converged
        finite = np.isfinite(res.distances[-1]) and np.isfinite(res.restricted_distances[-1])
        assert finite == (status == "diverged")


def test_budget_independence(stg):
    """Doubling the iteration budget moves the solution by less than tol."""
    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    ns = NonlinearitySpec(1, "x1")
    a = picard_iterate(fp, fm, ns, default_config(stg, 0.25, max_iter=8, tol=1e-11))
    b = picard_iterate(fp, fm, ns, default_config(stg, 0.25, max_iter=16, tol=1e-11))
    assert np.abs(a.up.data - b.up.data).max() < 1e-10


def test_reconstruction_identity(stg):
    """d_t u from central differences matches the evolution identity."""
    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    cfg = default_config(stg, 0.25)
    rep = solve_local(fp, fm, NonlinearitySpec(1, "x1"), cfg)
    u, dtu = rep.u.data, rep.dtu.data
    fd = (u[2:] - u[:-2]) / (2.0 * stg.dt)
    core = np.abs(stg.t_axis[1:-1]) <= cfg.delta
    err = np.abs(fd[core] - dtu[1:-1][core]).max()
    assert err < 10.0 * stg.dt**2 * np.abs(dtu).max() / max(np.abs(u).max(), 1e-30)


def test_solve_local_k1_residual(stg):
    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    rep = solve_local(fp, fm, NonlinearitySpec(1, "x1"), default_config(stg, 0.25))
    assert rep.success
    assert rep.z_value is None
    assert rep.max_jump < 0.05 * rep.persistence.max()


def test_solve_local_k2_z_diagnostic(stg):
    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    rep = solve_local(fp, fm, NonlinearitySpec(2, "t"), default_config(stg, 0.25), s=2.0)
    assert rep.success
    assert rep.z_value is not None and np.isfinite(rep.z_value)


def _manufactured(sg, m, amp=0.02):
    """Exact single-mode solution with compensating source for B_1, d_x1."""
    g = SpacetimeGrid(sg, m, 1.0)
    q, om = 1.0, 1.5
    x1 = sg.x_axis[:, None, None]
    t = g.t_axis[:, None, None, None]
    u = amp * np.cos(om * t) * np.cos(q * x1)[None] * np.ones((1,) + sg.shape)
    ut = -amp * om * np.sin(om * t) * np.cos(q * x1)[None] * np.ones((1,) + sg.shape)
    box = (q * q - om * om) * u
    b = -amp * amp * np.cos(om * t) ** 2 * q * np.sin(2 * q * x1)[None] * np.ones((1,) + sg.shape)
    src = SpacetimeField(g, (box - b).astype(complex))
    u0 = forward_transform(Field(sg, u[g.origin_index].astype(complex)))
    u1 = forward_transform(Field(sg, ut[g.origin_index].astype(complex)))
    return g, CauchyData(u0, u1), src, u


def test_manufactured_refinement(sg):
    """Box residual of the manufactured solution drops >= 3x per M doubling."""
    residuals = []
    for m in (32, 64):
        g, d, src, uex = _manufactured(sg, m)
        fp, fm = to_first_order(d)
        rep = solve_local(fp, fm, NonlinearitySpec(1, "x1"),
                          default_config(g, 0.25), source=src)
        assert rep.success
        core = np.abs(g.t_axis) <= 0.25
        assert np.abs(rep.u.data[core] - uex[core]).max() < 1e-6
        residuals.append(rep.residual)
    assert residuals[0] / residuals[1] >= 3.0


def test_select_delta_monotone_in_size(stg):
    """Larger data must not get a larger accepted delta."""
    ns = NonlinearitySpec(1, "x1")
    deltas = []
    for amp in (0.01, 10.0, 500.0):
        d = _gaussian_data(stg.spatial, amp=amp)
        delta, trace = select_delta(d, ns, stg)
        assert trace[-1]["rho1"] < 0.9
        deltas.append(delta)
    assert deltas[0] >= deltas[1] >= deltas[2]


def test_lipschitz_probe_skips_identical(stg):
    d = _gaussian_data(stg.spatial)
    cfg = default_config(stg, 0.25)
    out = flow_lipschitz_probe([(d, d)], NonlinearitySpec(1, "x1"), cfg)
    assert out["skipped"] == 1
    assert out["max_ratio"] is None


def test_lipschitz_probe_ratio(stg):
    d = _gaussian_data(stg.spatial)
    xi = stg.spatial.xi_modulus()
    pert = 1e-3 * np.exp(-(xi**2) / 2.0)
    d2 = CauchyData(Spectrum(stg.spatial, d.u0.data + pert), d.u1, 2.0, 1.0)
    cfg = default_config(stg, 0.25)
    out = flow_lipschitz_probe([(d, d2)], NonlinearitySpec(1, "x1"), cfg)
    assert out["failed"] == 0
    assert out["max_ratio"] == pytest.approx(1.0, abs=0.3)


def test_lipschitz_probe_solves_each_datum_once(monkeypatch):
    """A datum shared by several pairs is solved once; the ratios do not move."""
    stg = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    sg = stg.spatial
    d = _gaussian_data(sg)
    pert = 1e-3 * np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    d2 = CauchyData(Spectrum(sg, d.u0.data + pert), d.u1, 2.0, 1.0)
    d3 = CauchyData(Spectrum(sg, d.u0.data + 0.5 * pert), d.u1, 2.0, 1.0)
    # equal arrays in new objects: the same datum
    twin = CauchyData(Spectrum(sg, d.u0.data.copy()), Spectrum(sg, d.u1.data.copy()), 2.0, 1.0)
    # equal arrays, other exponents: solved apart
    other_r = CauchyData(d.u0, d.u1, 1.5, 1.0)
    ns, cfg = NonlinearitySpec(1, "x1"), default_config(stg, 0.25)
    pairs = [(d, d2), (d, d), (twin, d3), (d2, d), (other_r, d2)]
    separate = [flow_lipschitz_probe([p], ns, cfg)["rows"][0]["ratio"] for p in pairs]

    calls = []
    solve = solver_mod.solve_local

    def counting(*args, **kwargs):
        calls.append(kwargs.get("r"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_local", counting)
    out = flow_lipschitz_probe(pairs, ns, cfg)
    # d, d2, d3 at r = 2, then d and d2 again at r = 1.5
    assert calls == [2.0, 2.0, 2.0, 1.5, 1.5]
    assert [row["ratio"] for row in out["rows"]] == separate
    assert out["skipped"] == 1 and out["failed"] == 0
    assert separate[3] == separate[0]


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("half_length", [2.0 * np.pi, 1.3])
def test_slice_weight_matches_lattice_formula(n, half_length):
    """The shell-table data-space weight equals <xi>^{s r'} on every lattice point."""
    g = SpacetimeGrid(SpatialGrid(n, half_length), 4, 1.0)
    for r in (2.0, 1.5, 1.2):
        for s in (1.0, 2.0, -0.5):
            got = _sobolev_weight(g.spatial, r, s)
            assert got.shape == g.spatial.shape and got.flags.c_contiguous
            assert np.array_equal(got, g.spatial.bracket ** (s * dual_exponent(r)))


# ------------------------------------------------------------ real-data path

_NONLINEARITIES = [(1, "t"), (1, "x1"), (2, "t"), (2, "x1")]


def _rhs_reference(sp, sm, ns, g, source=None):
    """The out-of-place rhs_eval formula; the in-place one must match it bit for bit."""
    sg = g.spatial
    mask = sg.dealias_mask

    def deriv(spec):
        shape = [1, 1, 1, 1]
        shape[("t", "x1", "x2", "x3").index(ns.derivative)] = sg.n
        return 1j * sg.xi_axis.reshape(shape) * spec

    def inverse(spec):
        return spatial_inverse_slices(g, spec).data

    def forward(values):
        return spatial_forward_slices(SpacetimeField(g, values))

    dtw = -1j * sg.bracket * (sp - sm)
    if ns.k == 1:
        w = inverse(mask * (sp + sm))
        if ns.derivative == "t":
            b = forward(2.0 * w * inverse(mask * dtw))
        else:
            b = deriv(mask * forward(w * w))
    else:
        dw = inverse(mask * (dtw if ns.derivative == "t" else deriv(sp + sm)))
        b = forward(dw * dw)
    bracket = (mask * b) / 4.0 + (sp + sm) / 2.0
    if source is not None:
        bracket = bracket + source
    gm = bracket / sg.bracket
    return -gm, gm


def _picard_reference(fp, fm, ns, cfg, source=None, r=2.0, s=1.0):
    """The out-of-place two-component Picard loop with _rhs_reference."""
    g = cfg.grid
    window = window_values(cfg.window, g.t_axis)[:, None, None, None]
    core = np.abs(g.t_axis) <= cfg.delta + 1e-12
    params = NormParams(r, s, cfg.b, +1)
    free_p = free_slices(fp, g, EvolutionSpec("J", +1))
    free_m = free_slices(fm, g, EvolutionSpec("J", -1))

    def sup_norm(diff):
        return np.max(_slice_norms(g, diff, r, s)[core])

    def restricted(diff):
        spec = SpacetimeSpectrum(g, time_forward(g, window * diff))
        return xsb_norm(spec, params)

    sp, sm = free_p, free_m
    distances, restricted_distances = [], []
    for _ in range(cfg.max_iter):
        gp, gm = _rhs_reference(sp, sm, ns, g, source)
        new_p = free_p + duhamel(window * gp, +1, g)
        new_m = free_m + duhamel(window * gm, -1, g)
        d = float(sup_norm(new_p - sp) + sup_norm(new_m - sm))
        distances.append(d)
        restricted_distances.append(restricted(new_p - sp) + restricted(new_m - sm))
        sp, sm = new_p, new_m
        if d <= cfg.tol:
            break
    return sp, sm, distances, restricted_distances


def _complex_noise(rng, shape, amp=1.0):
    return amp * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _conj_reflect_by_index(a):
    """conj a(-xi) over the last three axes by the index map k -> (-k) mod n."""
    for axis in (-3, -2, -1):
        n = a.shape[axis]
        a = np.take(a, (-np.arange(n)) % n, axis=axis)
    return np.conj(a)


def _small_grid():
    return SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 16, 1.0)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("derivative", ["t", "x1", "x2", "x3"])
def test_rhs_eval_matches_reference_bitwise(k, derivative):
    g = _small_grid()
    rng = np.random.default_rng(10 * k + len(derivative))
    sp, sm, src = (_complex_noise(rng, g.shape) for _ in range(3))
    keep = sp.copy(), sm.copy(), src.copy()
    ns = NonlinearitySpec(k, derivative)
    for source in (None, src):
        got = rhs_eval(sp, sm, ns, g, source=source)
        want = _rhs_reference(sp, sm, ns, g, source)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for a, b in zip((sp, sm, src), keep):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
def test_general_path_matches_reference_bitwise(k, derivative):
    """Non-real data take the general path, which is the out-of-place loop bit for bit."""
    g = _small_grid()
    sg = g.spatial
    rng = np.random.default_rng(k + 7)
    env = np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    fp = Spectrum(sg, _complex_noise(rng, sg.shape, 0.02) * env)
    fm = Spectrum(sg, _complex_noise(rng, sg.shape, 0.02) * env)
    src = _complex_noise(rng, g.shape, 1e-3)
    ns = NonlinearitySpec(k, derivative)
    cfg = default_config(g, 0.25)
    for source in (None, src):
        res = picard_iterate(fp, fm, ns, cfg, source=source)
        sp, sm, dist, rdist = _picard_reference(fp, fm, ns, cfg, source)
        assert not res.real_data and res.converged
        assert np.array_equal(res.sp, sp) and np.array_equal(res.sm, sm)
        assert res.distances == dist and res.restricted_distances == rdist


def _general_solve(*args, **kwargs):
    """solve_local with the real-data test switched off: the general path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "_hermitian_part", lambda fp, fm, source: None)
        return solve_local(*args, **kwargs)


def _max_rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
@pytest.mark.parametrize("with_source", [False, True])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), amp=st.floats(1e-3, 3e-2))
def test_real_path_matches_general(k, derivative, with_source, seed, amp):
    """On random real data the real path reproduces the general one to 1e-13
    relative; the contraction factors and the Box residual are rounding-limited."""
    g = _small_grid()
    sg = g.spatial
    rng = np.random.default_rng(seed)
    env = np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    u0, u1 = (_complex_noise(rng, sg.shape, amp) * env for _ in range(2))
    d = CauchyData(Spectrum(sg, (u0 + _conj_reflect_by_index(u0)) / 2.0),
                   Spectrum(sg, (u1 + _conj_reflect_by_index(u1)) / 2.0))
    fp, fm = to_first_order(d)
    source = None
    if with_source:
        source = SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j)
    ns, cfg = NonlinearitySpec(k, derivative), default_config(g, 0.25)
    real = solve_local(fp, fm, ns, cfg, source=source)
    general = _general_solve(fp, fm, ns, cfg, source=source)
    assert real.result.real_data and not general.result.real_data
    assert real.result.iterations == general.result.iterations
    assert _max_rel(real.u.data, general.u.data) <= 1e-13
    assert _max_rel(real.dtu.data, general.dtu.data) <= 1e-13
    assert _max_rel(real.result.distances, general.result.distances) <= 1e-13
    assert _max_rel(real.result.restricted_distances,
                    general.result.restricted_distances) <= 1e-13
    assert np.array_equal(real.result.sm, _conj_reflect_by_index(real.result.sp))


def test_real_path_detection_edges():
    g = _small_grid()
    sg = g.spatial
    ns, cfg = NonlinearitySpec(1, "x1"), default_config(g, 0.25, max_iter=3)
    fp, fm = to_first_order(_gaussian_data(sg))
    assert picard_iterate(fp, fm, ns, cfg).real_data
    rng = np.random.default_rng(3)
    scale = np.abs(fp.data).max()

    # 1e-10 off real data: the general path
    off = Spectrum(sg, fp.data + _complex_noise(rng, sg.shape, 1e-10 * scale))
    assert not picard_iterate(off, fm, ns, cfg).real_data

    # within the tolerance, with mass on the Nyquist planes: projected, and
    # u_- is conj R u_+ exactly at the end
    z = _complex_noise(rng, sg.shape, scale)
    z = (z + _conj_reflect_by_index(z)) / 2.0
    near_p = Spectrum(sg, z + _complex_noise(rng, sg.shape, 1e-16 * scale))
    near_m = Spectrum(sg, _conj_reflect_by_index(z) + _complex_noise(rng, sg.shape, 1e-16 * scale))
    res = picard_iterate(near_p, near_m, ns, cfg)
    assert res.real_data
    assert np.abs(res.sp[:, 0]).min() > 0 and np.abs(res.sp[..., 0]).min() > 0
    assert np.array_equal(res.sm, _conj_reflect_by_index(res.sp))

    # a real source keeps the real path; a non-real one forces the general path
    real_src = spatial_forward_slices(SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j))
    assert picard_iterate(fp, fm, ns, cfg, source=real_src).real_data
    odd_src = real_src + _complex_noise(rng, g.shape, 1e-10 * np.abs(real_src).max())
    assert not picard_iterate(fp, fm, ns, cfg, source=odd_src).real_data


def test_picard_grid_validation():
    """Both spectra and the source are checked against the grid, for real data too."""
    g = _small_grid()
    fp, fm = to_first_order(_gaussian_data(g.spatial))
    ns, cfg = NonlinearitySpec(1, "x1"), default_config(g, 0.25, max_iter=2)
    other = Spectrum(SpatialGrid(8, np.pi), fm.data)
    with pytest.raises(GridMismatchError):
        picard_iterate(fp, other, ns, cfg)
    with pytest.raises(GridMismatchError):
        picard_iterate(fp, fm, ns, cfg, source=np.zeros((g.m - 1,) + g.spatial.shape, complex))


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
def test_real_path_transform_count(monkeypatch, k, derivative):
    """Per Picard iteration the real path makes the general path's scipy.fft
    calls, each on an array whose last spectral axis is N//2 + 1."""
    calls = []

    def recorded(name):
        original = getattr(scipy.fft, name)
        kind = {"rfftn": "fftn", "irfftn": "ifftn"}.get(name, name)

        def wrapper(x, *args, **kwargs):
            out = original(x, *args, **kwargs)
            spectral = x if kind == "ifftn" else out
            calls.append((kind, tuple(kwargs["axes"]), spectral.shape[-1]))
            return out

        return wrapper

    for name in ("fft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(scipy.fft, name, recorded(name))
    g = _small_grid()
    n = g.spatial.n
    fp, fm = to_first_order(_gaussian_data(g.spatial))
    ns = NonlinearitySpec(k, derivative)

    def per_iteration(real):
        counts = []
        for iterations in (1, 2):
            calls.clear()
            res = picard_iterate(fp, fm, ns, default_config(g, 0.25, max_iter=iterations, tol=0.0))
            assert res.iterations == iterations and res.real_data == real
            counts.append(list(calls))
        assert counts[1] == 2 * counts[0]
        return counts[0]

    real = per_iteration(True)
    monkeypatch.setattr(solver_mod, "_hermitian_part", lambda fp, fm, source: None)
    general = per_iteration(False)
    assert general and {size for _, _, size in general} == {n}
    assert real == [(kind, axes, n // 2 + 1) for kind, axes, _ in general]


# ------------------------------------------------------- window-block Picard

def _window_configs(g):
    """A window on every slice, the default one, and one on five slices."""
    return [
        SolveConfig(g, 0.25, WindowSpec(support=g.half_time, flat_fraction=1.0)),
        default_config(g, 0.25),
        SolveConfig(g, 1.5 * g.dt, WindowSpec(support=3.0 * g.dt, flat_fraction=0.5)),
    ]


def _block_size(cfg):
    return int(np.count_nonzero(window_values(cfg.window, cfg.grid.t_axis)))


def _real_data(g, amp=0.02):
    return to_first_order(_gaussian_data(g.spatial, amp))


def _rhs_real(sp, ns, g, source_half, window):
    """window * g_+ for real data from u_+ alone on the full lattice: u_- is
    rebuilt and g_+ completed from its half on every call."""
    h = g.spatial.n // 2 + 1
    sm = conj_reflect(sp)[..., :h]
    gp = solver_mod._rhs_minus(sp[..., :h], sm, ns, g, source_half)
    gp *= -window
    return hermitian_full(gp)


def _picard_real_full_lattice(fp, fm, ns, cfg, source=None, r=2.0, s=1.0):
    """The full-lattice real-data loop on every time slice, the oracle of the
    half-lattice one: u_+ alone, with u_- = conj R u_+ measured under the
    reflected X-weight.  It returns the fields of a PicardResult."""
    g = cfg.grid
    fp, _, source = solver_mod._hermitian_part(fp, fm, source)
    h = g.spatial.n // 2 + 1
    source_half = None if source is None else source[..., :h]
    window = window_values(cfg.window, g.t_axis)[:, None, None, None]
    core = np.abs(g.t_axis) <= cfg.delta + 1e-12
    params = NormParams(r, s, cfg.b, +1)
    rp = params.rprime
    xsb_wt = _xsb_weight(g, params)
    xsb_wts = xsb_wt, reflect(xsb_wt, (0, 1, 2, 3))
    free_p = free_slices(fp, g, EvolutionSpec("J", +1))
    sp = free_p
    distances, restricted, status = [], [], "unconverged"
    grew = 0
    for _ in range(cfg.max_iter):
        gp = _rhs_real(sp, ns, g, source_half, window)
        new_p = duhamel(gp, +1, g) + free_p
        diff = new_p - sp
        d = 2.0 * float(np.max(_slice_norms(g, diff[core], r, s)))
        a = np.abs(time_forward(g, diff * window)) ** rp
        dr = sum(float((np.sum(wt * a) * g.spatial.dxi**3 * g.dtau) ** (1.0 / rp))
                 for wt in xsb_wts)
        if distances:
            grew = grew + 1 if d > distances[-1] else 0
        distances.append(d)
        restricted.append(dr)
        sp = new_p
        if not (np.isfinite(d) and np.isfinite(dr)):
            status = "nonfinite"
            break
        if d <= cfg.tol:
            status = "converged"
            break
        if grew >= 3:
            status = "diverged"
            break
    return dict(sp=sp, sm=conj_reflect(sp), distances=distances,
                restricted_distances=restricted, iterations=len(distances), status=status)


def _half_lattice_totals(a_p, a_m, weights, axes):
    """The weighted sums of the half-lattice loop, out of place."""
    wt, mate = weights
    return (np.sum(wt * a_p, axis=axes) + np.sum(mate * a_m, axis=axes),
            np.sum(wt * a_m, axis=axes) + np.sum(mate * a_p, axis=axes))


def _picard_real_reference(fp, fm, ns, cfg, source=None, r=2.0, s=1.0):
    """The half-lattice real-data loop on every time slice, out of place: both
    components on the first N//2 + 1 entries of the last axis.  It returns
    the fields of a PicardResult."""
    g = cfg.grid
    n = g.spatial.n
    h = n // 2 + 1
    fp, fm, source = solver_mod._hermitian_part(fp, fm, source)
    source_half = None if source is None else source[..., :h]
    window = window_values(cfg.window, g.t_axis)[:, None, None, None]
    core = np.abs(g.t_axis) <= cfg.delta + 1e-12
    params = NormParams(r, s, cfg.b, +1)
    rp = params.rprime
    slice_wts, xsb_wts = solver_mod._norm_weights(g, params, h)
    free_p = free_slices(fp, g, EvolutionSpec("J", +1))[..., :h]
    free_m = free_slices(fm, g, EvolutionSpec("J", -1))[..., :h]
    sp, sm = free_p, free_m
    distances, restricted, rhos, status = [], [], [], "unconverged"
    grew = 0
    for _ in range(cfg.max_iter):
        gm = window * solver_mod._rhs_minus(sp, sm, ns, g, source_half)
        new_p = _duhamel(-gm, +1, g, g.origin_index) + free_p
        new_m = _duhamel(gm, -1, g, g.origin_index) + free_m
        dp, dm = new_p - sp, new_m - sm
        tp, tm = _half_lattice_totals(np.abs(dp[core]) ** rp, np.abs(dm[core]) ** rp,
                                      slice_wts, (1, 2, 3))
        dxi3 = g.spatial.dxi**3
        d = float(np.max((tp * dxi3) ** (1.0 / rp)) + np.max((tm * dxi3) ** (1.0 / rp)))
        fp_, fm_ = (np.abs(time_forward(g, window * x)) ** rp for x in (dp, dm))
        xp, xm = _half_lattice_totals(fp_, fm_, xsb_wts, None)
        dr = float((xp * dxi3 * g.dtau) ** (1.0 / rp)) + float((xm * dxi3 * g.dtau) ** (1.0 / rp))
        if distances:
            rhos.append(d / distances[-1] if distances[-1] > 0 else 0.0)
            grew = grew + 1 if d > distances[-1] else 0
        distances.append(d)
        restricted.append(dr)
        sp, sm = new_p, new_m
        if not (np.isfinite(d) and np.isfinite(dr)):
            status = "nonfinite"
            break
        if d <= cfg.tol:
            status = "converged"
            break
        if grew >= 3:
            status = "diverged"
            break
    sp = hermitian_full(sp, sm)
    return dict(sp=sp, sm=conj_reflect(sp), distances=distances,
                restricted_distances=restricted, rhos=rhos, iterations=len(distances),
                status=status, real_data=True)


@pytest.mark.parametrize("window", [0, 1, 2])
@pytest.mark.parametrize("k, derivative", [(1, "x1"), (2, "t")])
def test_window_block_matches_reference_bitwise(window, k, derivative):
    """On every window, from all slices to five, the block loop is the
    full-axis loop bit for bit: the general path against the out-of-place
    loop, real data against the full-axis real loop."""
    g = _small_grid()
    sg = g.spatial
    cfg = _window_configs(g)[window]
    assert _block_size(cfg) == (g.m, 7, 5)[window]
    ns = NonlinearitySpec(k, derivative)
    rng = np.random.default_rng(window)
    env = np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    fp = Spectrum(sg, _complex_noise(rng, sg.shape, 0.02) * env)
    fm = Spectrum(sg, _complex_noise(rng, sg.shape, 0.02) * env)
    src = _complex_noise(rng, g.shape, 1e-3)
    for source in (None, src):
        res = picard_iterate(fp, fm, ns, cfg, source=source)
        sp, sm, dist, rdist = _picard_reference(fp, fm, ns, cfg, source)
        assert not res.real_data and res.converged
        assert np.array_equal(res.sp, sp) and np.array_equal(res.sm, sm)
        assert res.distances == dist and res.restricted_distances == rdist
    rp, rm = _real_data(g)
    real_src = spatial_forward_slices(SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j))
    for source in (None, real_src):
        res = picard_iterate(rp, rm, ns, cfg, source=source)
        want = _picard_real_reference(rp, rm, ns, cfg, source)
        assert res.real_data and res.converged
        for name, value in want.items():
            got = getattr(res, name)
            assert np.array_equal(got, value) if name in ("sp", "sm") else got == value, name


@pytest.mark.parametrize("real", [True, False])
def test_window_block_transform_shapes(monkeypatch, real):
    """Inside the loop every spatial transform sees the block's slices and
    every time transform all M."""
    g = _small_grid()
    cfg = default_config(g, 0.25, max_iter=3, tol=0.0)
    blk = _block_size(cfg)
    assert blk < g.m
    seen = []

    def recorded(name):
        original = getattr(scipy.fft, name)

        def wrapper(x, *args, **kwargs):
            seen.append((tuple(kwargs["axes"]), np.shape(x)[0]))
            return original(x, *args, **kwargs)

        return wrapper

    for name in ("fft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(scipy.fft, name, recorded(name))
    fp, fm = _real_data(g)
    if not real:
        fm = Spectrum(g.spatial, fm.data * np.exp(0.1j))
    res = picard_iterate(fp, fm, NonlinearitySpec(1, "t"), cfg)
    assert res.real_data == real and res.iterations == 3
    spatial = [m for axes, m in seen if axes == (1, 2, 3)]
    timed = [m for axes, m in seen if axes == (0,)]
    assert len(spatial) + len(timed) == len(seen)
    assert spatial and set(spatial) == {blk}
    assert timed and set(timed) == {g.m}


def _residual_reference(rep, ns, cfg, src=None):
    """The Box-residual audit on full arrays: B, its source term and d_t^2 u
    on every slice, then the core slices less the grid's first and last two."""
    g = cfg.grid
    sp, sm = rep.result.sp, rep.result.sm
    real = rep.result.real_data
    n = g.spatial.n
    h = n // 2 + 1 if real else n
    u_spec = (sp + sm) / 2.0
    a, b = sp[..., :h], sm[..., :h]
    b_spec = solver_mod._bilinear_spec(a, b, a + b, ns, g) / 4.0
    if real:
        b_spec = hermitian_full(b_spec)
    if src is not None:
        b_spec = b_spec + src
    utt = np.full_like(u_spec, np.nan)
    utt[2:-2] = (
        -u_spec[:-4] + 16 * u_spec[1:-3] - 30 * u_spec[2:-2] + 16 * u_spec[3:-1] - u_spec[4:]
    ) / (12.0 * g.dt**2)
    box = utt + g.spatial.modulus**2 * u_spec
    idx = np.abs(g.t_axis) <= cfg.delta + 1e-12
    idx[:2] = idx[-2:] = False
    resid = box[idx] - b_spec[idx]
    return (float(np.sqrt(np.mean(np.abs(resid) ** 2))),
            float(np.sqrt(np.mean(np.abs(b_spec[idx]) ** 2))))


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
@pytest.mark.parametrize("real", [True, False])
def test_residual_audit_matches_full_array_reference(k, derivative, real):
    """The Box residual formed on the audited slices alone equals the
    full-array audit, for each window, with and without a source."""
    g = _small_grid()
    rng = np.random.default_rng(k)
    fp, fm = _real_data(g)
    if not real:
        fm = Spectrum(g.spatial, fm.data * np.exp(0.1j))
    source = SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j)
    ns = NonlinearitySpec(k, derivative)
    for cfg in _window_configs(g):
        for src in (None, source):
            rep = solve_local(fp, fm, ns, cfg, source=src)
            assert rep.result.real_data == real
            spec = None if src is None else spatial_forward_slices(src)
            assert (rep.residual, rep.residual_scale) == _residual_reference(rep, ns, cfg, spec)


# ----------------------------------------------- real data on the half lattice

def _random_real_data(g, rng, amp=0.02):
    """First-order data of a random real datum with a Gaussian envelope."""
    sg = g.spatial
    env = np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    u0, u1 = (_complex_noise(rng, sg.shape, amp) * env for _ in range(2))
    return to_first_order(CauchyData(Spectrum(sg, (u0 + _conj_reflect_by_index(u0)) / 2.0),
                                     Spectrum(sg, (u1 + _conj_reflect_by_index(u1)) / 2.0)))


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
def test_real_path_matches_full_lattice_loop(k, derivative):
    """The half-lattice loop reproduces the full-lattice real loop to
    1e-13 relative, with the same iteration count and status, on each window,
    with and without a source, converged or not, and at r = 1.5."""
    g = _small_grid()
    rng = np.random.default_rng(20 + k)
    fp, fm = _random_real_data(g, rng)
    src = spatial_forward_slices(SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j))
    ns = NonlinearitySpec(k, derivative)
    runs = [(cfg, source, 2.0) for cfg in _window_configs(g) for source in (None, src)]
    runs += [(default_config(g, 0.25, max_iter=3, tol=0.0), src, 2.0),
             (default_config(g, 0.25), src, 1.5)]
    for cfg, source, r in runs:
        res = picard_iterate(fp, fm, ns, cfg, r=r, source=source)
        want = _picard_real_full_lattice(fp, fm, ns, cfg, source, r=r)
        assert res.real_data
        assert (res.iterations, res.status) == (want["iterations"], want["status"])
        for name in ("sp", "sm", "distances", "restricted_distances"):
            assert _max_rel(getattr(res, name), want[name]) <= 1e-13, name
        assert np.array_equal(res.sm, _conj_reflect_by_index(res.sp))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("r", [1.2, 1.5, 2.0])
def test_half_lattice_norms_match_full_lattice(n, r):
    """For u_- = conj R u_+ the half-lattice sums with the mate weights give
    the full-lattice slice norms and X-norms of both components to 1e-13."""
    g = SpacetimeGrid(SpatialGrid(n, 2 * np.pi), 16, 1.0)
    h = n // 2 + 1
    rng = np.random.default_rng(n + int(10 * r))
    up = _complex_noise(rng, g.shape)
    um = _conj_reflect_by_index(up)
    assert np.abs(um - up).max() > 0.1      # u_+ is not Hermitian
    params = NormParams(r, 1.0, 0.55, +1)
    rp = params.rprime
    slice_wts, xsb_wts = solver_mod._norm_weights(g, params, h)
    dxi3 = g.spatial.dxi**3
    totals = solver_mod._pair_totals(np.abs(up[..., :h]) ** rp, np.abs(um[..., :h]) ** rp,
                                     slice_wts, (1, 2, 3))
    for t, u in zip(totals, (up, um)):
        want = _slice_norms(g, u, r, 1.0)
        assert np.max(np.abs((t * dxi3) ** (1.0 / rp) - want) / want) <= 1e-13
    spectra = [time_forward(g, u) for u in (up, um)]
    totals = solver_mod._pair_totals(*(np.abs(F[..., :h]) ** rp for F in spectra),
                                     xsb_wts, None)
    for t, F in zip(totals, spectra):
        want = xsb_norm(SpacetimeSpectrum(g, F), params)
        assert abs((t * dxi3 * g.dtau) ** (1.0 / rp) - want) <= 1e-13 * want


def test_empty_audit_is_unaudited():
    """A converged solve with no slice left to audit neither succeeds nor
    takes the mean of an empty slice."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 4, 1.0)
    fp, fm = to_first_order(_gaussian_data(g.spatial))
    rep = solve_local(fp, fm, NonlinearitySpec(1, "x1"), default_config(g, 0.5))
    assert rep.result.converged
    assert rep.status == "unaudited" and not rep.success
    assert np.isnan(rep.residual) and rep.residual_scale == 0.0
