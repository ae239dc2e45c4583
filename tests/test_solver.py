"""First-order reformulation, Picard contraction, residual consistency."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.fft

from halfwave import solver as solver_mod
from halfwave.errors import GridMismatchError, ParameterError
from halfwave.grid import (
    Field,
    _checkerboard,
    _dft,
    _dft_scale,
    _signs,
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
from halfwave.propagator import (
    EvolutionSpec,
    _duhamel_step,
    _free_slices_at,
    duhamel,
    free_slices,
)
from halfwave.solver import (
    CauchyData,
    NonlinearitySpec,
    SolveConfig,
    default_config,
    flow_lipschitz_probe,
    picard_iterate,
    rhs_eval,
    select_delta,
    solve_local,
    to_first_order,
)
from halfwave.spaces import (
    NormParams,
    WindowSpec,
    _core_slices,
    _grid_window,
    _lattice_norms,
    _slice_norms,
    _slice_weights,
    _sobolev_weight,
    _xsb_weights,
    dual_exponent,
    sobolev_hat_norm,
    window_values,
    xsb_norm,
    z_norm,
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
    # the inverse of f_pm = u0 +- i J^{-1} u1
    v0 = (fp.data + fm.data) / 2.0
    v1 = sg.bracket * (fp.data - fm.data) / 2j
    assert np.abs(v0 - u0.data).max() < 1e-12
    assert np.abs(v1 - u1.data).max() < 1e-12


def test_cauchy_data_refuse_a_nonfinite_s(sg):
    """s enters every data norm, so select_delta's start min(1, 0.5/(1 + norm))
    would read 1 for s = NaN: the data refuse it first."""
    z = Spectrum(sg, np.zeros(sg.shape, complex))
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="s must be finite"):
            CauchyData(z, z, 2.0, s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cauchy_data_refuse_nonfinite_values(sg, bad):
    """A non-finite entry of u0 or u1 is refused, whatever s: select_delta's
    start would read min(1, 0.5/(1 + NaN)) = 1 for it."""
    z = Spectrum(sg, np.zeros(sg.shape, complex))
    spoilt = np.zeros(sg.shape, complex)
    spoilt[1, 2, 3] = bad
    with pytest.raises(ParameterError, match="position data u0 must be finite"):
        CauchyData(Spectrum(sg, spoilt), z)
    with pytest.raises(ParameterError, match="velocity data u1 must be finite"):
        CauchyData(z, Spectrum(sg, spoilt))


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
    assert [f.name for f in dataclasses.fields(SolveConfig)] == [
        "grid", "delta", "max_iter", "tol", "b"]
    with pytest.raises(ParameterError, match="delta must be positive"):
        SolveConfig(stg, -0.1)
    for delta in (np.nan, np.inf):
        # every comparison with NaN is False: the config refuses it all the same
        with pytest.raises(ParameterError, match="does not fit the time box"):
            SolveConfig(stg, delta)
    with pytest.raises(ParameterError):
        # a Picard budget is at least one iteration
        default_config(stg, 0.25, max_iter=0)
    assert default_config(stg, 0.25, max_iter=1).max_iter == 1


@pytest.mark.parametrize("n, m", [(8, 16), (16, 64)])
def test_window_follows_from_delta(n, m):
    """From delta = 2 dt to 0.95 T the config's window, with b set or None,
    has support min(2 delta, 0.95 T) and [-delta, delta] as its flat core,
    and the time window check accepts it; the loop's block is the core
    alone.  A delta just past 0.95 T has no config."""
    g = SpacetimeGrid(SpatialGrid(n, 2 * np.pi), m, 1.0)
    top = 0.95 * g.half_time
    on_slices = g.dt * np.arange(2, m // 2)
    fp, fm = to_first_order(_gaussian_data(g.spatial))
    for delta in np.concatenate([np.linspace(2.0 * g.dt, top, 97), on_slices[on_slices <= top]]):
        cfg = SolveConfig(g, float(delta), b=0.55)
        support = min(2.0 * cfg.delta, top)
        assert cfg.window == dataclasses.replace(cfg, b=None).window == WindowSpec(
            support=support, flat_fraction=min(1.0, max(0.5, cfg.delta / support)))
        _grid_window(g, cfg.window, cfg.delta)
        state = solver_mod._PicardState(fp, fm, NonlinearitySpec(1, "x1"), cfg, 2.0, 1.0, None)
        assert np.array_equal(np.arange(m)[state.blk], np.flatnonzero(_core_slices(g, delta)))
    with pytest.raises(ParameterError, match="does not fit the time box"):
        SolveConfig(g, float(np.nextafter(top, np.inf)))


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
    assert np.abs(res.sp).max() == 0.0 and np.abs(res.sm).max() == 0.0


def test_linear_flow_unitary(stg):
    """With the nonlinearity dropped the data-space norm is t-independent
    for the pure free flow (iterate 0) of each component."""
    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    free = (free_slices(fp, stg, EvolutionSpec("J", +1)),
            free_slices(fm, stg, EvolutionSpec("J", -1)))
    for norms in _slice_norms(stg, free, 2.0, 1.0):
        assert norms.std() / norms.mean() < 1e-12


def test_contraction_small_data(stg):
    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    cfg = default_config(stg, 0.25, b=0.55)
    res = picard_iterate(fp, fm, NonlinearitySpec(1, "x1"), cfg)
    assert res.converged and not res.diverged
    assert all(rho < 0.5 for rho in res.rhos)
    assert res.restricted_distances[0] > res.restricted_distances[-1]


def test_nonfinite_distances_diverge():
    """Overflowing iterates stop at the first non-finite distance as diverged."""
    stg = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    fp, fm = to_first_order(_gaussian_data(stg.spatial, amp=1e60))
    with np.errstate(over="ignore", invalid="ignore"):
        res = picard_iterate(fp, fm, NonlinearitySpec(1, "x1"), default_config(stg, 0.25, b=0.55))
    assert res.diverged and not res.converged
    assert res.iterations <= 3
    assert not np.isfinite(res.distances[-1]) or not np.isfinite(res.restricted_distances[-1])


def test_picard_status(stg):
    """One status says why the loop stopped; converged and diverged follow it.
    Overflow ends the loop non-finite with or without the X-distance (b set
    or None): the core's distance alone catches it."""
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
        for b in (0.55, None):
            with np.errstate(over="ignore", invalid="ignore"):
                res = picard_iterate(fp, fm, ns, default_config(small, 0.25, b=b))
            assert res.status == status and res.diverged and not res.converged
            if b is None:
                assert res.restricted_distances == []
            else:
                last = res.distances[-1], res.restricted_distances[-1]
                assert all(map(np.isfinite, last)) == (status == "diverged")


def test_budget_independence(stg):
    """Doubling the iteration budget moves the solution by less than tol."""
    d = _gaussian_data(stg.spatial)
    fp, fm = to_first_order(d)
    ns = NonlinearitySpec(1, "x1")
    a = picard_iterate(fp, fm, ns, default_config(stg, 0.25, max_iter=8, tol=1e-11))
    b = picard_iterate(fp, fm, ns, default_config(stg, 0.25, max_iter=16, tol=1e-11))
    ua, ub = (spatial_inverse_slices(stg, res.sp) for res in (a, b))
    assert np.abs(ua.data - ub.data).max() < 1e-10


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
    rep = solve_local(fp, fm, NonlinearitySpec(2, "t"), default_config(stg, 0.25, b=0.55), s=2.0)
    assert rep.success
    assert rep.z_value is not None and np.isfinite(rep.z_value)


@pytest.mark.parametrize("b", [0.55, 0.7])
def test_z_value_settles_as_the_time_step_falls(b):
    """z_value is z_norm of psi u and psi d_t u, psi = cfg.window: the Z-norm
    of the solve's own continuation.  At M = 128 and 256 (16^3, k = 2 d_t,
    delta = 0.25) it agrees within 1e-3 relative (6.1e-4 and 7.5e-4
    measured at b = 0.55 and 0.7).  The Z-norm over the whole periodic time
    box, where the continuation jumps at t = +-T, fails that (5% and 13%)."""
    windowed, whole = [], []
    for m in (128, 256):
        g = SpacetimeGrid(SpatialGrid(16, 2 * np.pi), m, 1.0)
        cfg = default_config(g, 0.25, b=b)
        fp, fm = to_first_order(_gaussian_data(g.spatial))
        rep = solve_local(fp, fm, NonlinearitySpec(2, "t"), cfg)
        assert rep.success
        p = NormParams(2.0, 1.0, b)
        psi = window_values(cfg.window, g.t_axis)[:, None, None, None]
        want = z_norm(SpacetimeField(g, psi * rep.u.data), SpacetimeField(g, psi * rep.dtu.data), p)
        assert rep.z_value == pytest.approx(want, rel=1e-13)
        windowed.append(rep.z_value)
        whole.append(z_norm(rep.u, rep.dtu, p))
    assert abs(windowed[1] - windowed[0]) <= 1e-3 * windowed[1]
    assert abs(whole[1] - whole[0]) > 1e-3 * whole[1]


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


@pytest.mark.parametrize("amp, k, derivative, accepted", [
    (10.0, 1, "x1", True), (100.0, 1, "x1", True), (500.0, 1, "x1", True),
    (2000.0, 2, "t", False),
])
def test_select_delta_floor(stg, amp, k, derivative, accepted):
    """Data whose start formula falls below 2 dt are tried at 2 dt, where the
    core keeps two slices on each side of t = 0 and rho_1 is not 0 by
    construction; the large k=2 d_t datum fails there, and the trace shows it."""
    d = _gaussian_data(stg.spatial, amp=amp)
    assert 0.5 / (1.0 + max(d.norms())) < 2.0 * stg.dt
    delta, trace = select_delta(d, NonlinearitySpec(k, derivative), stg)
    assert [row["delta"] for row in trace] == [delta] == [2.0 * stg.dt]
    assert trace[0]["rho1"] > 0.0
    assert (trace[0]["rho1"] < 0.9) == accepted


def test_select_delta_returns_a_tried_delta(stg, monkeypatch):
    """With no delta accepted, the halving stops at the floor 2 dt, or after
    the trial budget, and returns the last delta tried."""
    d = _gaussian_data(stg.spatial)
    ns = NonlinearitySpec(1, "x1")
    monkeypatch.setattr(solver_mod, "_RHO_TARGET", 0.0)
    delta, trace = select_delta(d, ns, stg)
    deltas = [row["delta"] for row in trace]
    assert delta == deltas[-1] == 2.0 * stg.dt < deltas[-2]
    assert deltas[:-1] == [deltas[0] / 2**i for i in range(len(deltas) - 1)]
    monkeypatch.setattr(solver_mod, "_MAX_TRIALS", 2)
    delta, trace = select_delta(d, ns, stg)
    assert delta == trace[-1]["delta"] == deltas[1] and len(trace) == 2


def test_select_delta_trials_read_the_picard_loop(stg):
    """A trial runs the core loop alone, and its rho_1 is that of
    picard_iterate at the same delta, bit for bit, for real and complex data."""
    ns = NonlinearitySpec(2, "t")
    d = _gaussian_data(stg.spatial, amp=1.0)
    for data in (d, _twisted(d)):
        delta, trace = select_delta(data, ns, stg)
        solver_mod._TRIAL.clear()       # a fresh loop, not the trial resumed
        res = picard_iterate(*to_first_order(data), ns, default_config(stg, delta, max_iter=2))
        assert trace[-1]["rho1"] == res.rhos[0] > 0.0


def _same(a, b) -> bool:
    """Bit-for-bit equality of report values: arrays by dtype, shape and
    bytes, floats by their bytes (so NaN equals NaN), containers item by item."""
    if isinstance(a, (SpacetimeField, SpacetimeSpectrum)):
        return type(a) is type(b) and a.grid == b.grid and _same(a.data, b.data)
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, float):
        return isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _assert_same_report(got, want):
    """Every SolveReport field, and every PicardResult field in it, bit for bit."""
    for f in dataclasses.fields(want):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if f.name == "result":
            for rf in dataclasses.fields(y):
                assert _same(getattr(x, rf.name), getattr(y, rf.name)), rf.name
        else:
            assert _same(x, y), f.name


@pytest.fixture
def sweeps(monkeypatch):
    """Counts the calls of the Picard loop's sweep."""
    calls = []
    sweep = solver_mod._linear_sweep

    def counted(*args, **kwargs):
        calls.append(None)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_linear_sweep", counted)
    return calls


def _delta_selected_solves(g, d, ns, sweeps, source=None, **cfg_kw):
    """solve_local at select_delta's delta right after select_delta, and again
    with the trial memo emptied; the sweeps each of the two ran."""
    delta, trace = select_delta(d, ns, g)
    assert len(solver_mod._TRIAL) == 1
    fp, fm = to_first_order(d)
    cfg = default_config(g, delta, **cfg_kw)
    sweeps.clear()
    resumed = solve_local(fp, fm, ns, cfg, r=d.r, s=d.s, source=source)
    counts = [len(sweeps)]
    assert not solver_mod._TRIAL
    sweeps.clear()
    fresh = solve_local(fp, fm, ns, cfg, r=d.r, s=d.s, source=source)
    counts.append(len(sweeps))
    _assert_same_report(resumed, fresh)
    return resumed, counts


def _twisted(d):
    """d with a phase on the velocity: complex data."""
    return CauchyData(d.u0, Spectrum(d.u0.grid, d.u1.data * np.exp(0.1j)), d.r, d.s)


@pytest.mark.parametrize("max_iter", [12, 2, 1])
@pytest.mark.parametrize("k, derivative", [(1, "x1"), (2, "t")])
@pytest.mark.parametrize("real", [True, False])
def test_delta_selected_solve_resumes_the_trial_bitwise(stg, sweeps, real, k, derivative,
                                                        max_iter):
    """solve_local right after select_delta resumes the accepted trial from
    its second iteration and reports every field as a fresh solve does, bit
    for bit.  With max_iter = 2 it runs no new iteration and extends the
    trial's last sweep; with max_iter = 1 it cannot resume."""
    d = _gaussian_data(stg.spatial, amp=1.0)
    d = d if real else _twisted(d)
    rep, (resumed, fresh) = _delta_selected_solves(stg, d, NonlinearitySpec(k, derivative),
                                                   sweeps, max_iter=max_iter)
    assert rep.result.real_data == real
    assert fresh == rep.result.iterations
    if max_iter < 3:
        assert fresh == max_iter and rep.result.status == "unconverged"
    else:
        assert rep.success and fresh >= 3
    assert resumed == (fresh if max_iter == 1 else fresh - 2)


def test_delta_selected_solve_sweeps_past_the_trial_only(stg, sweeps):
    """A delta-selected solve_local after select_delta sweeps iterations - 2
    times: the two iterations of the accepted trial are not run again."""
    ns = NonlinearitySpec(1, "t")
    d = _gaussian_data(stg.spatial, amp=1.0)
    delta, _ = select_delta(d, ns, stg)
    sweeps.clear()
    rep = solve_local(*to_first_order(d), ns, default_config(stg, delta))
    assert rep.success and len(sweeps) == rep.result.iterations - 2 > 0


def test_zero_data_solve_finishes_the_converged_trial(stg, sweeps):
    """Zero data converge at the trial's first distance: the solve only
    finishes the trial, and runs no sweep."""
    d = _gaussian_data(stg.spatial, amp=0.0)
    rep, counts = _delta_selected_solves(stg, d, NonlinearitySpec(2, "t"), sweeps)
    assert rep.result.distances == [0.0] and rep.success
    assert counts == [0, 1]


def test_solve_resumes_the_trial_accepted_after_a_rejected_one(stg, sweeps, monkeypatch):
    """With a first trial rejected, the memo holds the accepted second one."""
    ns = NonlinearitySpec(2, "t")
    d = _gaussian_data(stg.spatial, amp=1.0)
    monkeypatch.setattr(solver_mod, "_RHO_TARGET", 0.0)
    rho1 = [row["rho1"] for row in select_delta(d, ns, stg)[1]]
    assert rho1[0] > rho1[1]
    monkeypatch.setattr(solver_mod, "_RHO_TARGET", (rho1[0] + rho1[1]) / 2.0)
    assert [row["rho1"] for row in select_delta(d, ns, stg)[1]] == rho1[:2]
    rep, (resumed, fresh) = _delta_selected_solves(stg, d, ns, sweeps)
    assert rep.success and resumed == fresh - 2


def test_solve_with_a_source_never_resumes(stg, sweeps):
    """A call with a source runs its own loop, and empties the memo."""
    d = _gaussian_data(stg.spatial, amp=1.0)
    src = SpacetimeField(stg, np.zeros(stg.shape, complex))
    rep, (resumed, fresh) = _delta_selected_solves(stg, d, NonlinearitySpec(1, "x1"), sweeps,
                                                   source=src)
    assert resumed == fresh == rep.result.iterations


def test_solve_with_b_patched_after_the_trial_does_not_resume(stg, sweeps, monkeypatch):
    """The trial memo is keyed by the product kernel: with B = 0 patched in
    after select_delta, the solve is the linear one, not the trial resumed."""
    ns = NonlinearitySpec(1, "x1")
    d = _gaussian_data(stg.spatial, amp=1.0)
    delta, _ = select_delta(d, ns, stg)
    monkeypatch.setattr(solver_mod, "_bilinear_spec", lambda sp, sm, ns, g: np.zeros_like(sp))
    sweeps.clear()
    rep = solve_local(*to_first_order(d), ns, default_config(stg, delta))
    assert not solver_mod._TRIAL
    assert len(sweeps) == rep.result.iterations == 2 and rep.result.distances[1] == 0.0


def test_select_delta_nonfinite_trial_is_not_accepted():
    """A trial that stops non-finite measured nothing: its rho_1 is None, its
    status says why, and no such trial is accepted; the solve then reports
    the non-finite stop itself."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 16, 1.0)
    d = _gaussian_data(g.spatial, amp=1e150)
    ns = NonlinearitySpec(1, "x1")
    with np.errstate(over="ignore", invalid="ignore"):
        delta, trace = select_delta(d, ns, g)
        rep = solve_local(*to_first_order(d), ns, default_config(g, delta))
    assert trace == [{"delta": 2.0 * g.dt, "rho1": None, "status": "nonfinite"}]
    assert rep.status == "nonfinite" and not rep.success


def test_select_delta_halves_past_a_nonfinite_trial(stg, monkeypatch):
    """Above the floor a non-finite trial is halved past like a rejected one."""
    calls = []

    class FirstNonfinite(solver_mod._PicardState):
        def __init__(self, fp, fm, ns, cfg, *args):
            calls.append(cfg.delta)
            super().__init__(fp, fm, ns, cfg, *args)

        def advance(self, max_iter):
            if len(calls) > 1:
                return super().advance(max_iter)
            self.result = solver_mod.PicardResult(self.g, None, None, [np.nan], iterations=1,
                                                  status="nonfinite")

    monkeypatch.setattr(solver_mod, "_PicardState", FirstNonfinite)
    delta, trace = select_delta(_gaussian_data(stg.spatial), NonlinearitySpec(1, "x1"), stg)
    assert [row["delta"] for row in trace] == calls == [2.0 * delta, delta]
    assert trace[0] == {"delta": calls[0], "rho1": None, "status": "nonfinite"}
    assert trace[1]["status"] == "unconverged" and 0.0 < trace[1]["rho1"] < 0.9


def test_select_delta_zero_data_converges_at_the_first_distance(stg):
    """Zero data converge at their first distance: rho_1 = 0, accepted."""
    delta, trace = select_delta(_gaussian_data(stg.spatial, amp=0.0), NonlinearitySpec(2, "t"),
                                stg)
    assert trace == [{"delta": delta, "rho1": 0.0, "status": "converged"}]


def test_select_delta_takes_b_by_name(stg, monkeypatch):
    """select_delta's one setting is b, which reaches every trial's config
    beside the trial budget; its default is SolveConfig's, and any other
    keyword is refused before a trial runs."""
    seen = []
    make = solver_mod.default_config

    def recorded(grid, delta, **kw):
        seen.append(kw)
        return make(grid, delta, **kw)

    monkeypatch.setattr(solver_mod, "default_config", recorded)
    d, ns = _gaussian_data(stg.spatial), NonlinearitySpec(1, "x1")
    select_delta(d, ns, stg)
    assert seen and all(kw == {"max_iter": 2, "b": SolveConfig.b} for kw in seen)
    seen.clear()
    select_delta(d, ns, stg, b=0.7)
    assert seen and all(kw == {"max_iter": 2, "b": 0.7} for kw in seen)
    seen.clear()
    for kw in ({"max_iter": 5}, {"tol": 1e-8}):
        with pytest.raises(TypeError):
            select_delta(d, ns, stg, **kw)
    assert not seen


@pytest.mark.parametrize("k, derivative", [(1, "t"), (1, "x1"), (2, "t"), (2, "x1")])
@pytest.mark.parametrize("real", [True, False])
def test_x_norm_never_steers_the_loop(stg, real, k, derivative):
    """b enters the X-distances and the Z-norm alone: a delta-selected
    solve with b = 0.55 reports both, and one with b None forms neither.
    Both run the loop on the core alone and give the same delta, trace,
    distances, status and residual, bit for bit, and the same iterates, u
    and d_t u on the whole time axis.  The b = 0.55 solve resumes its trial,
    iterates continued over the X window's tails included, and reports what
    a fresh solve does."""
    d = _gaussian_data(stg.spatial, amp=1.0)
    d = d if real else _twisted(d)
    ns = NonlinearitySpec(k, derivative)
    runs = []
    for b in (None, 0.55):
        delta, trace = select_delta(d, ns, stg, b=b)
        rep = solve_local(*to_first_order(d), ns, default_config(stg, delta, b=b))
        runs.append((delta, trace, rep))
    (delta, trace, bare), (delta_b, trace_b, rep) = runs
    assert delta == delta_b and trace == trace_b
    assert bare.result.real_data == real and bare.success
    for name in ("sp", "sm", "distances", "iterations", "status"):
        assert _same(getattr(bare.result, name), getattr(rep.result, name)), name
    for name in ("u", "dtu", "residual", "residual_scale", "persistence", "max_jump", "status"):
        assert _same(getattr(bare, name), getattr(rep, name)), name
    assert bare.result.restricted_distances == [] and bare.z_value is None
    assert len(rep.result.restricted_distances) == rep.result.iterations
    _assert_same_report(rep, solve_local(*to_first_order(d), ns, default_config(stg, delta, b=0.55)))
    assert (rep.z_value is not None) == (k == 2)


@pytest.mark.parametrize("half_time", [0.5, 0.3])
def test_select_delta_fits_a_short_time_box(half_time):
    """At small data min(1, 0.5/(1 + norm)) is about 0.48, above 0.95 T on
    these boxes: the start is capped at SolveConfig.largest_delta, so every
    trial, and the returned delta, make a config."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 16, half_time)
    delta, trace = select_delta(_gaussian_data(g.spatial), NonlinearitySpec(1, "x1"), g)
    assert trace[0]["delta"] == SolveConfig.largest_delta(g) == 0.95 * half_time
    assert SolveConfig(g, delta).delta == delta


def test_select_delta_without_a_floor_delta_raises():
    """On M = 4 the floor 2 dt is the whole time half-width: no window fits."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 4, 1.0)
    with pytest.raises(ParameterError):
        select_delta(_gaussian_data(g.spatial), NonlinearitySpec(1, "x1"), g)


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


def test_lipschitz_probe_off_origin_ratios():
    """The sup over the core slices with t != 0 is finite, positive and at
    most the sup over the whole core, pair by pair."""
    stg = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    sg = stg.spatial
    d = _gaussian_data(sg)
    rng = np.random.default_rng(5)
    env = np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    pairs = [(d, CauchyData(Spectrum(sg, d.u0.data + _complex_noise(rng, sg.shape, eps) * env),
                            d.u1, 2.0, 1.0))
             for eps in (1e-3, 5e-4)]
    out = flow_lipschitz_probe(pairs, NonlinearitySpec(1, "x1"), default_config(stg, 0.25))
    off, full = out["ratios_off_origin"], out["ratios"]
    assert len(off) == len(full) == 2
    for ratio_off, ratio in zip(off, full):
        assert np.isfinite(ratio_off) and 0.0 < ratio_off <= ratio
    assert out["max_ratio_off_origin"] == max(off)


def test_lipschitz_probe_solves_each_datum_once(monkeypatch):
    """A first datum that the next pairs repeat is solved once; the ratios
    are those of one-pair probes."""
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
    pairs = [(d, d2), (d, d), (twin, d3), (other_r, d2)]
    separate = [flow_lipschitz_probe([p], ns, cfg)["rows"][0]["ratio"] for p in pairs]

    calls = []
    solve = solver_mod.picard_iterate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("r"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "picard_iterate", counting)
    out = flow_lipschitz_probe(pairs, ns, cfg)
    # d, d2, d3 at r = 2, then d and d2 again at r = 1.5
    assert calls == [2.0, 2.0, 2.0, 1.5, 1.5]
    assert [row["ratio"] for row in out["rows"]] == separate
    assert out["skipped"] == 1 and out["failed"] == 0


def test_lipschitz_probe_keeps_the_solve_of_one_first_datum(monkeypatch):
    """Only the first datum of consecutive pairs is kept: a datum that comes
    back after another first datum, or as a second datum, is solved again."""
    stg = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    sg = stg.spatial
    d = _gaussian_data(sg)
    d2, d3 = (CauchyData(Spectrum(sg, a * d.u0.data), d.u1, 2.0, 1.0) for a in (1.001, 1.002))
    calls = []
    solve = solver_mod.picard_iterate

    def counting(fp, *args, **kwargs):
        calls.append(fp.data.tobytes())
        return solve(fp, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "picard_iterate", counting)
    out = flow_lipschitz_probe([(d, d2), (d3, d), (d, d3)], NonlinearitySpec(1, "x1"),
                               default_config(stg, 0.25))
    assert [row["status"] for row in out["rows"]] == ["ok"] * 3
    names = {to_first_order(x)[0].data.tobytes(): name
             for x, name in ((d, "d"), (d2, "d2"), (d3, "d3"))}
    assert [names[c] for c in calls] == ["d", "d2", "d3", "d", "d", "d3"]


def _probe_reference(pairs, ns, cfg):
    """The probe's rows and off-origin ratios from solve_local reports, every
    datum solved apart, each pair's ratios taken as the probe defines them."""
    g = cfg.grid
    core = solver_mod._core_slices(g, cfg.delta)
    off_origin = np.flatnonzero(core) != g.origin_index
    rows, off = [], []
    for d1, d2 in pairs:
        reps = [solve_local(*to_first_order(x), ns, cfg, r=d1.r, s=d1.s) for x in (d1, d2)]
        assert all(rep.success for rep in reps)
        (a_p, a_m), (b_p, b_m) = (_completed(rep.result) for rep in reps)
        f1, f2 = to_first_order(d1), to_first_order(d2)
        ddist = sobolev_hat_norm(Spectrum(g.spatial, f1[0].data - f2[0].data), d1.r, d1.s) + \
            sobolev_hat_norm(Spectrum(g.spatial, f1[1].data - f2[1].data), d1.r, d1.s)
        norms_p, norms_m = _slice_norms(g, (a_p[core] - b_p[core], a_m[core] - b_m[core]),
                                        d1.r, d1.s)
        rows.append({"ratio": float(np.max(norms_p) + np.max(norms_m)) / ddist, "status": "ok"})
        off.append(float(np.max(norms_p[off_origin]) + np.max(norms_m[off_origin])) / ddist)
    return rows, off


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("k, derivative", [(1, "x1"), (2, "t")])
def test_lipschitz_probe_matches_solve_local_reports(real, k, derivative):
    """The probe reads picard_iterate's iterates, which are those of
    solve_local's report: its rows and ratios equal those taken from the
    reports, for real and complex data (real ones completed to the full
    lattice, as the probe completes them)."""
    stg = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    sg = stg.spatial
    d = _gaussian_data(sg, amp=0.5)
    d = d if real else _twisted(d)
    rng = np.random.default_rng(7)
    env = np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    pert = [eps * (env if real else _complex_noise(rng, sg.shape) * env) for eps in (1e-3, 5e-4)]
    others = [CauchyData(Spectrum(sg, d.u0.data + p), d.u1, 2.0, 1.0) for p in pert]
    pairs = [(d, others[0]), (d, others[1]), (others[0], others[1])]
    ns, cfg = NonlinearitySpec(k, derivative), default_config(stg, 0.25)
    assert picard_iterate(*to_first_order(others[0]), ns, cfg).real_data == real
    out = flow_lipschitz_probe(pairs, ns, cfg)
    rows, off = _probe_reference(pairs, ns, cfg)
    assert out["rows"] == rows and out["ratios"] == [row["ratio"] for row in rows]
    assert out["ratios_off_origin"] == off
    assert out["failed"] == out["skipped"] == 0


def test_lipschitz_probe_counts_an_unaudited_solve(stg):
    """At delta = dt no core slice is left to audit, so solve_local reports a
    converged solve unaudited; the probe reads the Picard loops alone, and
    its pair is a contracting one."""
    ns = NonlinearitySpec(1, "x1")
    d = _gaussian_data(stg.spatial)
    d2 = CauchyData(Spectrum(stg.spatial, 1.001 * d.u0.data), d.u1, 2.0, 1.0)
    cfg = default_config(stg, stg.dt)
    assert solve_local(*to_first_order(d), ns, cfg).status == "unaudited"
    out = flow_lipschitz_probe([(d, d2)], ns, cfg)
    assert out["failed"] == 0 and out["rows"] == [{"ratio": out["max_ratio"], "status": "ok"}]
    assert np.isfinite(out["max_ratio"]) and out["max_ratio"] > 0.0


@pytest.fixture
def states_alive(monkeypatch):
    """The number of other live Picard loop states each time one is built."""
    live, counts = weakref.WeakSet(), []
    init = solver_mod._PicardState.__init__

    def counted(self, *args):
        counts.append(len(live))
        init(self, *args)
        live.add(self)

    monkeypatch.setattr(solver_mod._PicardState, "__init__", counted)
    return counts


def test_one_loop_state_alive_at_a_time(stg, states_alive, monkeypatch):
    """No other loop state is alive while one is built: not a rejected
    trial's, nor a memo an earlier select_delta left, while select_delta
    builds a trial, and not the unmatched memo's while picard_iterate builds
    a fresh state.  Each holds 27-47 MB at 16^3 x 64."""
    ns = NonlinearitySpec(2, "t")
    d = _gaussian_data(stg.spatial)
    monkeypatch.setattr(solver_mod, "_RHO_TARGET", 0.0)    # every trial is rejected
    delta, trace = select_delta(d, ns, stg)
    assert len(trace) >= 3 and delta == 2.0 * stg.dt
    select_delta(d, ns, stg)
    assert states_alive == [0] * (2 * len(trace))
    assert len(solver_mod._TRIAL) == 1
    states_alive.clear()
    picard_iterate(*to_first_order(d), ns, default_config(stg, 2.0 * delta))
    assert states_alive == [0] and not solver_mod._TRIAL


def _reachable_bytes(root) -> int:
    """Bytes of the distinct arrays reachable from root, a view counted as
    the array that owns its data; the lattices' shared tables are left out."""
    seen, owners, todo = set(), {}, [root]
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (SpatialGrid, SpacetimeGrid, type)):
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            owners[id(x)] = x.nbytes
        else:
            todo.extend(gc.get_referents(x))
    return sum(owners.values())


def _parked_trial(stg, real, b=None):
    """The trial select_delta parks on the Gaussian at amplitude 1, real or
    not, and the bytes of its loop values at b = None, counted from their
    shapes."""
    d = _gaussian_data(stg.spatial, amp=1.0)
    d = d if real else _twisted(d)
    select_delta(d, NonlinearitySpec(2, "t"), stg, b=b)
    (state,) = solver_mod._TRIAL.values()
    n = stg.spatial.n
    column = n * n * (n // 2 + 1 if real else n)       # entries of one time slice
    block = (state.blk.stop - state.blk.start) * column
    loop_values = (
        16 * 2 * block                          # the free slices
        + 8 * column                            # the forcing weight, one column table
        + 16 * 2 * block                        # the two iterates
        + 16 * 4 * column + 16 * 4 * column     # the steps and the seeds, forward and back
        + 16 * 2 * n**3                         # the data
    )
    assert state.result.iterations == 2
    return state, loop_values


@pytest.mark.parametrize("real", [True, False])
def test_parked_trial_holds_loop_values_alone(stg, real):
    """The trial select_delta parks holds no work buffer: its arrays are no
    more than its loop values, counted from their shapes.  At the default
    b = None they hold no X-weights and no window."""
    state, loop_values = _parked_trial(stg, real)
    assert _reachable_bytes(state) <= loop_values


@pytest.mark.parametrize("real", [True, False])
def test_parked_trial_with_b_holds_no_tail_slices(stg, real):
    """With b set the parked trial adds the X-weights (and their mate for
    real data) and the window to its loop values, and no slice past the
    core: the X-distance continues the iterates from the seeds."""
    state, loop_values = _parked_trial(stg, real, b=0.55)
    column = state.free_p[0].size
    loop_values += 8 * (2 if real else 1) * stg.m * column + 8 * stg.m
    assert _reachable_bytes(state) <= loop_values


def _traced_peak(call):
    """The result of call() and the peak of the bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _complex_solve_case(b=None):
    """Complex data at 8^3 x 16, delta = 0.25: the loop runs on the full lattice."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 16, 1.0)
    d = _twisted(_gaussian_data(g.spatial))
    return g, d, default_config(g, 0.25, b=b)


@pytest.mark.parametrize("k, derivative", [(1, "t"), (1, "x1"), (2, "t"), (2, "x1")])
def test_picard_loop_working_set_is_counted_from_shapes(k, derivative):
    """One Picard solve on complex data with b set reaches its traced peak in
    the X-distance, where the forcing is dead: six core arrays (the free
    slices and the old and new iterates, the old ones holding the
    differences), the zero-padded (M, ...) buffer and the two moduli the
    X-distance forms, the X-weights, the forcing weight and sixteen
    column-sized arrays (the data, the steps, the seeds and the sweep's
    slices): 86.5 columns of 16 bytes, against 83.6 measured.  No array on
    the X window's tails outlives the slices it fills."""
    g, d, cfg = _complex_solve_case(b=0.55)
    fp, fm = to_first_order(d)
    ns = NonlinearitySpec(k, derivative)
    picard_iterate(fp, fm, ns, cfg)             # builds the cached tables
    res, peak = _traced_peak(lambda: picard_iterate(fp, fm, ns, cfg))
    assert not res.real_data and res.iterations >= 2
    column = g.spatial.n**3                     # entries of one time slice
    core = _core_size(cfg) * column
    bound = (
        16 * 6 * core                           # free slices, old and new iterates
        + 16 * g.m * column                     # the padded buffer of the X-distance
        + 8 * 2 * g.m * column                  # its two moduli
        + 8 * g.m * column + 8 * column         # the X-weights and the forcing weight
        + 16 * 16 * column                      # column-sized arrays
    )
    assert peak <= bound


@pytest.mark.parametrize("k, derivative", [(1, "t"), (2, "x1")])
def test_picard_iterations_without_b_make_no_whole_axis_array(k, derivative):
    """With b None the iterations form no X-distance: the traced peak of
    advancing a loop state on complex data is no more than the five block
    arrays an iteration adds to the state's free slices (the iterates, the
    forcing and the sweep's two outputs), the two block moduli of the
    slice-norm guard and sixteen column-sized arrays, and one (M, ...)
    complex array more would exceed that (41.4-41.5 against 46 and
    57.4-57.5 columns of 16 bytes measured)."""
    g, d, cfg = _complex_solve_case()
    fp, fm = to_first_order(d)
    ns = NonlinearitySpec(k, derivative)
    picard_iterate(fp, fm, ns, cfg)             # builds the cached tables
    state = solver_mod._PicardState(fp, fm, ns, cfg, d.r, d.s, None)
    _, peak = _traced_peak(lambda: state.advance(cfg.max_iter))
    assert state.result.iterations >= 2 and state.result.restricted_distances == []
    column = g.spatial.n**3
    blk = state.blk.stop - state.blk.start
    bound = 16 * 5 * blk * column + 8 * 2 * blk * column + 16 * 16 * column
    assert peak <= bound < peak + 16 * g.m * column


def test_lipschitz_probe_keeps_the_core_of_its_first_solve():
    """Of the solve of the base datum that two pairs share, the probe keeps
    the core slices of both components alone: its traced peak is that of one
    solve plus those, the last pair's core differences and column-sized
    arrays (the data and their first-order forms), not the whole first
    solve."""
    g, d, cfg = _complex_solve_case()
    ns = NonlinearitySpec(1, "x1")
    pairs = [(d, CauchyData(Spectrum(g.spatial, d.u0.data * (1.0 + eps)), d.u1, d.r, d.s))
             for eps in (1e-3, 5e-4)]
    flow_lipschitz_probe(pairs, ns, cfg)        # builds the cached tables
    _, solve_peak = _traced_peak(lambda: picard_iterate(*to_first_order(pairs[0][1]), ns, cfg))
    out, peak = _traced_peak(lambda: flow_lipschitz_probe(pairs, ns, cfg))
    assert [row["status"] for row in out["rows"]] == ["ok", "ok"]
    column = g.spatial.n**3
    core = int(np.count_nonzero(np.abs(g.t_axis) <= cfg.delta + 1e-12)) * column
    assert peak <= solve_peak + 16 * 2 * 2 * core + 16 * 16 * column


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


def _product_tables_reference(sg, h, ns):
    """The product kernel's tables, (w_in, d_in, out), built in its order:
    the spectral signs, transform scales, mask and derivative symbol of each
    side folded into one array, and the 1/4 of u = w/2 into out."""
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
        axis = ("x1", "x2", "x3").index(ns.derivative)
        shape = [1, 1, 1]
        shape[axis] = (sg.n, sg.n, h)[axis]
        deriv = 1j * sg.xi_axis[: shape[axis]].reshape(shape)
        if ns.k == 1:
            forward = deriv * forward
        else:
            w_in = deriv * inverse
    return w_in, d_in, forward


def _bilinear_reference(sp, sm, ns, g):
    """mask B_k(u, u) for u = w/2, w = u_+ + u_-, out of place in the product
    kernel's order: each factor a table product and a bare inverse DFT,
    their product times the x-space checkerboard, its bare forward DFT times
    the output table.  sp and sm are full spectra, or the half spectra of
    real data."""
    sg = g.spatial
    h = sp.shape[-1]
    w_in, d_in, out = _product_tables_reference(sg, h, ns)
    axes = (1, 2, 3)

    def inverse(spec):
        if h < sg.n:
            return scipy.fft.irfftn(spec, s=sg.shape, axes=axes)
        return scipy.fft.ifftn(spec, axes=axes)

    factors = []
    if w_in is not None:
        factors.append(inverse((sp + sm) * w_in))
    if d_in is not None:
        factors.append(inverse((sp - sm) * d_in))
    p = factors[0] * factors[-1] * _checkerboard(sg.n)
    forward = scipy.fft.rfftn if h < sg.n else scipy.fft.fftn
    return forward(p, axes=axes) * out


def _bilinear_textbook(sp, sm, ns, g, masked=True):
    """mask B_k(u, u) for u = w/2, w = u_+ + u_-, out of place on the full
    lattice through the centered public transforms, B from 2/3-rule
    dealiased factors: the tolerance oracle of the kernel.  masked=False
    leaves the output unmasked."""
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
            b = deriv(forward(w * w))
    else:
        dw = inverse(mask * (dtw if ns.derivative == "t" else deriv(sp + sm)))
        b = forward(dw * dw)
    return (mask * b if masked else b) / 4.0


def _rhs_reference(sp, sm, ns, g, source=None):
    """The out-of-place rhs_eval formula, mask B times 1/J plus (w/2 + S)/J;
    the in-place one must match it bit for bit."""
    b = _bilinear_reference(sp, sm, ns, g)
    linear = (sp + sm) / 2.0
    if source is not None:
        linear = linear + source
    gm = b * (1.0 / g.spatial.bracket) + linear / g.spatial.bracket
    return -gm, gm


def _forcing_reference(sp, sm, ns, g, window, source=None):
    """mask B_k(u, u) T + window S/J, T = window/J: the windowed forcing the
    Picard loop iterates, out of place, on full or half spectra."""
    h = sp.shape[-1]
    f = _bilinear_reference(sp, sm, ns, g) * (window * (1.0 / g.spatial.bracket[..., :h]))
    if source is not None:
        f = f + window * source / g.spatial.bracket[..., :h]
    return f


def _restricted_terms(g, window, diff, wts, rp):
    """|bare time DFT of window * diff|^{r'} and the X-weights (weight, mate)
    rolled by M/2 onto its tau order: the restricted-distance sums without
    the loop's time signs and dt.  On the bitwise tests' grid (dt = 1/8)
    they give the loop's distances bit for bit."""
    a = np.abs(scipy.fft.fftn(window * diff, axes=[0])) ** rp
    return a, tuple(None if x is None else np.roll(x, g.m // 2, axis=0) for x in wts)


def _restricted_root(g, total, rp):
    """The restricted distance from a sum of _restricted_terms: dt enters as dt^{r'}."""
    return float((total * g.spatial.dxi**3 * g.dtau * g.dt**rp) ** (1.0 / rp))


def _sweep_reference(f, c, free_p, free_m, g):
    """Duhamel parts (d_+, d_-) of the iterate whose linear term is solved, on
    every slice and out of place: d_pm = Duhamel(g_pm), g_- = f + c w/2 = -g_+,
    w = u_+ + u_-, in the trapezoid rule with the implicit terms at the new
    slice taken from w[k] = free_+[k] + free_-[k] + a_+ + a_-."""
    size = f.shape[-1]
    m0 = g.origin_index
    dp, dm, w = np.zeros_like(f), np.zeros_like(f), np.zeros_like(f)
    w[m0] = free_p[m0] + free_m[m0]
    s_p, s_m = _duhamel_step(g, +1, size), _duhamel_step(g, -1, size)
    sweeps = ((range(m0 + 1, g.m), -1, -0.5j * g.dt, s_p, s_m),
              (range(m0 - 1, -1, -1), +1, 0.5j * g.dt, np.conj(s_p), np.conj(s_m)))
    for ks, prev, h, step_p, step_m in sweeps:
        for k in ks:
            m = k + prev
            g_m = f[m] + c[m] * w[m] / 2.0
            a_p = step_p * (dp[m] + h * -g_m) - h * f[k]
            a_m = step_m * (dm[m] + h * g_m) + h * f[k]
            w[k] = free_p[k] + free_m[k] + a_p + a_m
            dp[k] = a_p - h * (c[k] * w[k] / 2.0)
            dm[k] = a_m + h * (c[k] * w[k] / 2.0)
    return dp, dm


def _loop_windows(cfg):
    """(loop window, X window) on every slice: the Picard loop's is the sharp
    indicator of the core, the X-distance's is cfg.window."""
    g = cfg.grid
    core = np.abs(g.t_axis) <= cfg.delta + 1e-12
    return (core.astype(float)[:, None, None, None],
            window_values(cfg.window, g.t_axis)[:, None, None, None])


def _picard_reference(fp, fm, ns, cfg, source=None, r=2.0, s=1.0, whole_forcing=False):
    """The out-of-place two-component Picard loop on every slice: the forcing
    from the old iterate, cut off past the core, the linear term solved in
    _sweep_reference; the restricted distances of the differences under
    cfg.window only when cfg sets b.

    With whole_forcing, the loop iterates the whole forcing of rhs_eval,
    linear term w/2 included, and sweeps it with duhamel.  That iteration
    map differs, but its fixed point solves the same discrete equations: it
    is the fixed-point oracle.
    """
    g = cfg.grid
    window, x_window = _loop_windows(cfg)
    c = window / g.spatial.bracket
    core = np.abs(g.t_axis) <= cfg.delta + 1e-12
    free_p = free_slices(fp, g, EvolutionSpec("J", +1))
    free_m = free_slices(fm, g, EvolutionSpec("J", -1))

    def sup_distance(dp, dm):
        return float(sum(np.max(norms[core]) for norms in _slice_norms(g, (dp, dm), r, s)))

    def restricted(diff):
        params = NormParams(r, s, cfg.b, +1)
        a, (wt, _) = _restricted_terms(g, x_window, diff, _xsb_weights(g, params, g.spatial.n),
                                       params.rprime)
        return _restricted_root(g, np.sum(a * wt), params.rprime)

    sp, sm = free_p, free_m
    distances, restricted_distances = [], []
    for _ in range(cfg.max_iter):
        if whole_forcing:
            gp, gm = _rhs_reference(sp, sm, ns, g, source)
            new_p = free_p + duhamel(window * gp, +1, g)
            new_m = free_m + duhamel(window * gm, -1, g)
        else:
            f = _forcing_reference(sp, sm, ns, g, window, source)
            dp, dm = _sweep_reference(f, c, free_p, free_m, g)
            new_p, new_m = free_p + dp, free_m + dm
        d = sup_distance(new_p - sp, new_m - sm)
        distances.append(d)
        if cfg.b is not None:
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


def _completed(res):
    """A PicardResult's (u_+, u_-) on the full lattice.  A real-data result
    holds their half spectra, the lattice its loop ran on; u_+ is completed
    from the pair and u_- is conj R of it, the two calls the Lipschitz probe
    makes.  A complex-data result is returned as it is."""
    if not res.real_data:
        return res.sp, res.sm
    sp = hermitian_full(res.sp, res.sm)
    return sp, conj_reflect(sp)


def _assert_half_pair(res):
    """A real-data result holds the half spectra (last axis N//2 + 1) of a
    real pair: on the self-conjugate planes 0 and N//2 of the last axis,
    which both spectra hold whole, u_- is conj R u_+ to rounding (within
    1.2e-16 of max |u_-| measured; the reflection keeps each plane)."""
    n = res.grid.spatial.n
    planes = [0, n // 2]
    assert res.real_data and res.sp.shape == res.sm.shape == (res.grid.m, n, n, n // 2 + 1)
    gap = _conj_reflect_by_index(res.sp[..., planes]) - res.sm[..., planes]
    assert np.abs(gap).max() <= 1e-15 * np.abs(res.sm).max()


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


_ALL_NONLINEARITIES = [(k, d) for k in (1, 2) for d in ("t", "x1", "x2", "x3")]


@pytest.mark.parametrize("k, derivative", _ALL_NONLINEARITIES)
def test_product_kernel_matches_textbook_formula(k, derivative):
    """The tabled kernel is the textbook B through the public centered
    transforms, to 4e-15 of the largest entry (1.4e-15 measured, the
    parent's half path read the same), on the half and the full lattice of
    real data and on complex data."""
    ns = NonlinearitySpec(k, derivative)
    for n, m in ((8, 16), (12, 6)):
        g = SpacetimeGrid(SpatialGrid(n, 2 * np.pi), m, 1.0)
        rng = np.random.default_rng(n + 10 * k + len(derivative))
        up = _complex_noise(rng, g.shape)
        cases = [(up, _conj_reflect_by_index(up), h) for h in (n // 2 + 1, n)]
        cases.append((up, _complex_noise(rng, g.shape), n))
        for sp, sm, h in cases:
            want = _bilinear_textbook(sp, sm, ns, g)[..., :h]
            a, b = sp[..., :h], sm[..., :h]
            got = solver_mod._bilinear_spec(a, b, ns, g)
            assert _max_rel(got, want) <= 4e-15


def test_product_tables_are_cached_and_read_only():
    """One read-only table set per (lattice, half or full, nonlinearity),
    built in the order of the test-side tables."""
    sg = _small_grid().spatial
    for k, derivative in _ALL_NONLINEARITIES:
        ns = NonlinearitySpec(k, derivative)
        for h in (sg.n // 2 + 1, sg.n):
            tables = solver_mod._product_tables(sg, h, ns)
            again = solver_mod._product_tables(SpatialGrid(sg.n, sg.half_length), h,
                                               NonlinearitySpec(k, derivative))
            assert again is tables
            want = _product_tables_reference(sg, h, ns) + (_checkerboard(sg.n),)
            for got, ref in zip(tables, want):
                assert (got is None) == (ref is None)
                if got is not None:
                    assert not got.flags.writeable and np.array_equal(got, ref)


@pytest.mark.parametrize("r", [2.0, 1.5, 1.2])
def test_restricted_distance_matches_textbook_formula(r):
    """The loop's restricted distance (a bare time DFT of the difference
    under the window times dt and the time signs, with xsb_norm's X-weights)
    is xsb_norm(time_forward(window diff)) to 1e-15 relative, on the full
    lattice and, with the mate weights, on the half lattice of a pair
    u_- = conj R u_+ (1.8e-16 measured).  The grids take dt = 1/8 and, at
    M = 24, dt = 1/12, which is no power of two, so folding it rounds."""
    for m in (16, 24):
        g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), m, 1.0)
        cfg = default_config(g, 0.25, b=0.55)
        window = window_values(cfg.window, g.t_axis)[:, None, None, None]
        x_window = window * g.dt * _signs(m)[:, None, None, None]
        params = NormParams(r, 1.0, cfg.b, +1)
        rng = np.random.default_rng(int(10 * r) + m)
        up = _complex_noise(rng, g.shape)
        n = g.spatial.n
        real_pair = up, _conj_reflect_by_index(up)
        for pair, sizes in ((real_pair, (n // 2 + 1, n)),
                            ((up, _complex_noise(rng, g.shape)), (n,))):
            want = [xsb_norm(SpacetimeSpectrum(g, time_forward(g, window * x)), params)
                    for x in pair]
            for h in sizes:
                spectra = [_dft(x_window * x[..., :h], time=g, bare=True) for x in pair]
                got = _lattice_norms(g, spectra, _xsb_weights(g, params, h), r)
                assert _max_rel(got, want) <= 1e-15


def _assert_matches_oracle(res, cfg, sp, sm, restricted):
    """The loop's iterates and restricted distances against a full-axis
    oracle's: the core slices bit for bit; off the core, where the loop
    continues each component as the J-flow of one edge datum and the
    oracle sweeps slice by slice, within 1e-14 relative (4e-16 measured);
    the restricted distances within 1e-14 of the first (2.3e-16 measured).
    A real-data result is completed to the full lattice first (_completed)."""
    core = _core_slices(cfg.grid, cfg.delta)
    for got, want in zip(_completed(res), (sp, sm)):
        assert np.array_equal(got[core], want[core])
        assert _max_rel(got[~core], want[~core]) <= 1e-14
    assert len(res.restricted_distances) == len(restricted)
    gaps = np.abs(np.subtract(res.restricted_distances, restricted))
    assert np.max(gaps) <= 1e-14 * restricted[0]


def _extend_by_steps(u, data, e, g, blk, seeds, steps):
    """_extend by the per-slice step loop: past each end of blk the free
    slices of data plus the seed _linear_sweep returned for that end,
    stepped once more than for the slice before."""
    out = _free_slices_at(g.spatial, data, e, g.t_axis)
    out[blk] = u
    for ks, d, step in zip((range(blk.stop, g.m), range(blk.start - 1, -1, -1)), seeds, steps):
        for k in ks:
            d = step * d
            out[k] += d
    return out


@pytest.mark.parametrize("real", [True, False])
def test_extend_is_the_continued_sweep(real):
    """_extend's J-flow of one edge datum per end is the sweep continued
    slice by slice past the core, within 1e-14 relative over tails of 230
    slices (M = 512, delta = 0.1), and the iterate on the core, bit for bit."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 512, 1.0)
    d = _gaussian_data(g.spatial, amp=1.0)
    d = d if real else _twisted(d)
    cfg = default_config(g, 0.1)
    state = solver_mod._PicardState(*to_first_order(d), NonlinearitySpec(2, "t"), cfg,
                                    d.r, d.s, None)
    state.advance(2)
    blk = state.blk
    assert state.result.real_data == real and g.m - blk.stop >= 230
    off = np.r_[0:blk.start, blk.stop:g.m]
    for u, x, e, seeds, steps in zip((state.sp, state.sm), state.data, state.flows,
                                     zip(*state.seeds), zip(*state.steps)):
        got = solver_mod._extend(u, x, e, g, blk, seeds)
        want = _extend_by_steps(u, x, e, g, blk, seeds, steps)
        assert np.array_equal(got[blk], u)
        assert _max_rel(got[off], want[off]) <= 1e-14


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
def test_general_path_matches_reference_bitwise(k, derivative):
    """Non-real data take the general path, which is the out-of-place loop
    bit for bit on the core and in the sup distances (see
    _assert_matches_oracle for the slices off the core and the X-distances)."""
    g = _small_grid()
    sg = g.spatial
    rng = np.random.default_rng(k + 7)
    env = np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    fp = Spectrum(sg, _complex_noise(rng, sg.shape, 0.02) * env)
    fm = Spectrum(sg, _complex_noise(rng, sg.shape, 0.02) * env)
    src = _complex_noise(rng, g.shape, 1e-3)
    ns = NonlinearitySpec(k, derivative)
    cfg = default_config(g, 0.25, b=0.55)
    for source in (None, src):
        res = picard_iterate(fp, fm, ns, cfg, source=source)
        sp, sm, dist, rdist = _picard_reference(fp, fm, ns, cfg, source)
        assert not res.real_data and res.converged
        assert res.distances == dist
        _assert_matches_oracle(res, cfg, sp, sm, rdist)


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
    ns, cfg = NonlinearitySpec(k, derivative), default_config(g, 0.25, b=0.55)
    real = solve_local(fp, fm, ns, cfg, source=source)
    general = _general_solve(fp, fm, ns, cfg, source=source)
    assert real.result.real_data and not general.result.real_data
    assert real.result.iterations == general.result.iterations
    assert _max_rel(real.u.data, general.u.data) <= 1e-13
    assert _max_rel(real.dtu.data, general.dtu.data) <= 1e-13
    assert _max_rel(real.result.distances, general.result.distances) <= 1e-13
    assert _max_rel(real.result.restricted_distances,
                    general.result.restricted_distances) <= 1e-13
    _assert_half_pair(real.result)
    assert not np.any(real.u.data.imag) and not np.any(real.dtu.data.imag)


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
    # the half spectra are those of a real pair at the end
    z = _complex_noise(rng, sg.shape, scale)
    z = (z + _conj_reflect_by_index(z)) / 2.0
    near_p = Spectrum(sg, z + _complex_noise(rng, sg.shape, 1e-16 * scale))
    near_m = Spectrum(sg, _conj_reflect_by_index(z) + _complex_noise(rng, sg.shape, 1e-16 * scale))
    res = picard_iterate(near_p, near_m, ns, cfg)
    assert res.real_data
    assert np.abs(res.sp[:, 0]).min() > 0 and np.abs(res.sp[..., 0]).min() > 0
    _assert_half_pair(res)

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


@pytest.mark.parametrize("r", [3.0, 0.5])
def test_picard_refuses_r_outside_the_data_range(r):
    """r lies in (1, 2], as for every norm of spaces: r = 3 would report its
    distances in r' = 1.5, and r = 0.5 in a negative exponent."""
    g = _small_grid()
    fp, fm = to_first_order(_gaussian_data(g.spatial))
    with pytest.raises(ParameterError, match="must lie in"):
        solve_local(fp, fm, NonlinearitySpec(1, "x1"), default_config(g, 0.25), r=r)


def test_picard_refuses_b_at_most_one_over_r():
    """With b set, the X-distance needs a finite b > 1/r, as the key estimate
    does (NaN passes b <= 1/r as False); with b None nothing reads it.
    select_delta's trials refuse it too."""
    g = _small_grid()
    d = _gaussian_data(g.spatial)
    d = CauchyData(d.u0, d.u1, 1.5, d.s)
    fp, fm = to_first_order(d)
    ns = NonlinearitySpec(1, "x1")
    for b in (0.55, 2.0 / 3.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="b > 1/r"):
            solve_local(fp, fm, ns, default_config(g, 0.25, b=b), r=1.5)
        with pytest.raises(ParameterError, match="b > 1/r"):
            select_delta(d, ns, g, b=b)
    for b in (0.7, None):
        assert solve_local(fp, fm, ns, default_config(g, 0.25, b=b), r=1.5).success


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

def _window_configs(g, b=None):
    """The widest window a config makes, the default one, and one on five slices."""
    return [default_config(g, delta, b=b) for delta in (0.5, 0.25, 1.5 * g.dt)]


def _block_size(cfg):
    return int(np.count_nonzero(window_values(cfg.window, cfg.grid.t_axis)))


def _core_size(cfg):
    return int(np.count_nonzero(_core_slices(cfg.grid, cfg.delta)))


def _real_data(g, amp=0.02):
    return to_first_order(_gaussian_data(g.spatial, amp))


def _forcing_real(sp, ns, g, source_half, window):
    """window * f for real data from u_+ alone on the full lattice: u_- is
    rebuilt and f completed from its half on every call."""
    h = g.spatial.n // 2 + 1
    sm = conj_reflect(sp)[..., :h]
    f = _forcing_reference(sp[..., :h], sm, ns, g, window, source_half)
    return hermitian_full(f, f)


def _sweep_real_full_lattice(f, c, free_p, g):
    """The Duhamel part d_+ of _sweep_reference for real data from u_+ alone:
    a_- = conj R a_+, so w[k] = free_+[k] + conj R free_+[k] + a_+ + conj R a_+."""
    m0 = g.origin_index
    dp, w = np.zeros_like(f), np.zeros_like(f)
    w[m0] = free_p[m0] + conj_reflect(free_p[m0])
    s_p = _duhamel_step(g, +1, g.spatial.n)
    for ks, prev, h, step in ((range(m0 + 1, g.m), -1, -0.5j * g.dt, s_p),
                              (range(m0 - 1, -1, -1), +1, 0.5j * g.dt, np.conj(s_p))):
        for k in ks:
            m = k + prev
            g_m = f[m] + c[m] * w[m] / 2.0
            a_p = step * (dp[m] - h * g_m) - h * f[k]
            w[k] = free_p[k] + conj_reflect(free_p[k]) + a_p + conj_reflect(a_p)
            dp[k] = a_p - h * (c[k] * w[k] / 2.0)
    return dp


def _picard_real_full_lattice(fp, fm, ns, cfg, source=None, r=2.0, s=1.0):
    """The full-lattice real-data loop on every time slice, the oracle of the
    half-lattice one: u_+ alone, with u_- = conj R u_+ measured under the
    reflected X-weight, the loop cut off past the core and the X-distance
    taken under cfg.window.  It returns the fields of a PicardResult."""
    g = cfg.grid
    fp, _, source = solver_mod._hermitian_part(fp, fm, source)
    h = g.spatial.n // 2 + 1
    source_half = None if source is None else source[..., :h]
    window, x_window = _loop_windows(cfg)
    c = window / g.spatial.bracket
    core = np.abs(g.t_axis) <= cfg.delta + 1e-12
    params = NormParams(r, s, cfg.b, +1)
    rp = params.rprime
    xsb_wt = _xsb_weights(g, params, g.spatial.n)[0]
    xsb_wts = xsb_wt, reflect(xsb_wt, (0, 1, 2, 3))
    free_p = free_slices(fp, g, EvolutionSpec("J", +1))
    sp = free_p
    distances, restricted, status = [], [], "unconverged"
    grew = 0
    for _ in range(cfg.max_iter):
        f = _forcing_real(sp, ns, g, source_half, window)
        new_p = _sweep_real_full_lattice(f, c, free_p, g) + free_p
        diff = new_p - sp
        d = 2.0 * float(np.max(_slice_norms(g, (diff[core],) * 2, r, s)[0]))
        a = np.abs(time_forward(g, diff * x_window)) ** rp
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
    components on the first N//2 + 1 entries of the last axis, swept by
    _sweep_reference, the loop cut off past the core and the X-distance
    taken under cfg.window.  It returns the fields of a PicardResult."""
    g = cfg.grid
    n = g.spatial.n
    h = n // 2 + 1
    fp, fm, source = solver_mod._hermitian_part(fp, fm, source)
    source_half = None if source is None else source[..., :h]
    window, x_window = _loop_windows(cfg)
    c = window / g.spatial.bracket[..., :h]
    core = np.abs(g.t_axis) <= cfg.delta + 1e-12
    params = NormParams(r, s, cfg.b, +1)
    rp = params.rprime
    slice_wts = _slice_weights(g.spatial, r, s, h)
    xsb_wts = _xsb_weights(g, params, h)
    free_p = free_slices(fp, g, EvolutionSpec("J", +1))[..., :h]
    free_m = free_slices(fm, g, EvolutionSpec("J", -1))[..., :h]
    sp, sm = free_p, free_m
    distances, restricted, rhos, status = [], [], [], "unconverged"
    grew = 0
    for _ in range(cfg.max_iter):
        f = _forcing_reference(sp, sm, ns, g, window, source_half)
        dp, dm = _sweep_reference(f, c, free_p, free_m, g)
        new_p, new_m = free_p + dp, free_m + dm
        dp, dm = new_p - sp, new_m - sm
        tp, tm = _half_lattice_totals(np.abs(dp[core]) ** rp, np.abs(dm[core]) ** rp,
                                      slice_wts, (1, 2, 3))
        dxi3 = g.spatial.dxi**3
        d = float(np.max((tp * dxi3) ** (1.0 / rp)) + np.max((tm * dxi3) ** (1.0 / rp)))
        (fp_, wts), (fm_, _) = (_restricted_terms(g, x_window, x, xsb_wts, rp) for x in (dp, dm))
        xp, xm = _half_lattice_totals(fp_, fm_, wts, None)
        dr = _restricted_root(g, xp, rp) + _restricted_root(g, xm, rp)
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
    """On every window, from all slices but one to five, the core loop with
    the X-distance continued over the window's tails is the full-axis loop
    bit for bit on the core and in every decision: the general path against
    the out-of-place loop, real data against the full-axis real loop (see
    _assert_matches_oracle for the slices off the core and the X-distances)."""
    g = _small_grid()
    sg = g.spatial
    cfg = _window_configs(g, b=0.55)[window]
    assert (_block_size(cfg), _core_size(cfg)) == ((g.m - 1, 9), (7, 5), (5, 3))[window]
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
        assert res.distances == dist
        _assert_matches_oracle(res, cfg, sp, sm, rdist)
    rp, rm = _real_data(g)
    real_src = spatial_forward_slices(SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j))
    for source in (None, real_src):
        res = picard_iterate(rp, rm, ns, cfg, source=source)
        want = _picard_real_reference(rp, rm, ns, cfg, source)
        assert res.real_data and res.converged
        _assert_matches_oracle(res, cfg, want.pop("sp"), want.pop("sm"),
                               want.pop("restricted_distances"))
        for name, value in want.items():
            assert getattr(res, name) == value, name


def _record_transforms(monkeypatch, record):
    """Wrap scipy.fft's transforms so that each call first hands its axes
    and the length of its input's first axis to record."""
    def recorded(name):
        original = getattr(scipy.fft, name)

        def wrapper(x, *args, **kwargs):
            record(tuple(kwargs["axes"]), np.shape(x)[0])
            return original(x, *args, **kwargs)

        return wrapper

    for name in ("fft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(scipy.fft, name, recorded(name))


@pytest.mark.parametrize("real", [True, False])
def test_window_block_transform_shapes(monkeypatch, real):
    """Inside the loop every spatial transform sees the core's slices, for
    either b, and every time transform, which the X-distance alone makes,
    all M: with b None the loop makes none."""
    g = _small_grid()
    seen = []
    _record_transforms(monkeypatch, lambda axes, m: seen.append((axes, m)))
    fp, fm = _real_data(g)
    if not real:
        fm = Spectrum(g.spatial, fm.data * np.exp(0.1j))
    for b in (0.55, None):
        cfg = default_config(g, 0.25, max_iter=3, tol=0.0, b=b)
        blk = _core_size(cfg)
        assert blk < _block_size(cfg) < g.m
        seen.clear()
        res = picard_iterate(fp, fm, NonlinearitySpec(1, "t"), cfg)
        assert res.real_data == real and res.iterations == 3
        spatial = [m for axes, m in seen if axes == (1, 2, 3)]
        timed = [m for axes, m in seen if axes == (0,)]
        assert len(spatial) + len(timed) == len(seen)
        assert spatial and set(spatial) == {blk}
        if b is None:
            assert timed == []
        else:
            assert timed and set(timed) == {g.m}


@pytest.mark.parametrize("real", [True, False])
def test_loop_without_b_transforms_the_core_alone(monkeypatch, real):
    """With b None the window is the core, so every spatial transform inside
    picard_iterate, and inside each select_delta trial, sees exactly the
    slices _core_slices picks at its delta, on deltas on and off the time
    slices; no time transform is made."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    cores, seen = [], []
    _record_transforms(monkeypatch, lambda axes, m: seen.append((axes, m, cores[-1])))
    config = solver_mod.default_config

    def tracked(grid, delta, **kwargs):
        cores.append(int(_core_slices(grid, delta).sum()))
        return config(grid, delta, **kwargs)

    monkeypatch.setattr(solver_mod, "default_config", tracked)
    monkeypatch.setattr(solver_mod, "_RHO_TARGET", 0.0)    # every trial is rejected
    d = _gaussian_data(g.spatial)
    d = d if real else _twisted(d)
    fp, fm = to_first_order(d)
    ns = NonlinearitySpec(1, "t")
    for delta in (0.5, 0.3, 0.25, 2.0 * g.dt):
        res = picard_iterate(fp, fm, ns, tracked(g, delta, max_iter=3, tol=0.0))
        assert res.real_data == real and res.iterations == 3
    delta, trace = select_delta(d, ns, g)
    assert len(trace) >= 3 and delta == 2.0 * g.dt
    assert len(cores) == 4 + len(trace) and len(set(cores)) >= 4
    assert seen and {axes for axes, _, _ in seen} == {(1, 2, 3)}
    assert all(m == core < g.m for _, m, core in seen)


def _residual_reference(rep, ns, cfg, src=None, b_spec=None):
    """The Box-residual audit on full arrays: B, its source term and d_t^2 u
    on every slice, then the core slices less the core's first and last two;
    (NaN, 0) when none is left.  B is the product kernel's unless b_spec
    gives it on every slice of the full lattice.  A real solve is completed
    to the full lattice first (_completed), and so is its B."""
    g = cfg.grid
    sp, sm = _completed(rep.result)
    u_spec = (sp + sm) / 2.0
    if b_spec is None:
        b_spec = solver_mod._bilinear_spec(rep.result.sp, rep.result.sm, ns, g)
        if rep.result.real_data:
            b_spec = hermitian_full(b_spec, b_spec)
    if src is not None:
        b_spec = b_spec + src
    utt = np.full_like(u_spec, np.nan)
    utt[2:-2] = (
        -u_spec[:-4] + 16 * u_spec[1:-3] - 30 * u_spec[2:-2] + 16 * u_spec[3:-1] - u_spec[4:]
    ) / (12.0 * g.dt**2)
    box = utt + g.spatial.modulus**2 * u_spec
    idx = np.abs(g.t_axis) <= cfg.delta + 1e-12
    kept = np.flatnonzero(idx)
    idx[kept[:2]] = idx[kept[-2:]] = False
    if not idx.any():
        return np.nan, 0.0
    resid = box[idx] - b_spec[idx]
    return (float(np.sqrt(np.mean(np.abs(resid) ** 2))),
            float(np.sqrt(np.mean(np.abs(b_spec[idx]) ** 2))))


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
@pytest.mark.parametrize("real", [True, False])
def test_residual_audit_matches_full_array_reference(k, derivative, real):
    """The Box residual formed on the audited slices alone, on the lattice
    the loop ran on, equals the full-array audit to 1e-14 relative (NaN
    where both are NaN), for each window, with and without a source."""
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
            want = _residual_reference(rep, ns, cfg, spec)
            np.testing.assert_allclose((rep.residual, rep.residual_scale), want,
                                       rtol=1e-14, atol=0.0, equal_nan=True)


def test_residual_falls_with_the_time_step():
    """The audit reads the mask B the loop solved, so for every nonlinearity
    its residual/residual_scale falls by the trapezoid's second order: at
    least 3.5x per doubling of M over 32, 64, 128 (3.94-4.66x measured) on
    the CLI's Gaussian at amplitude 1, 16^3, L = 2 pi, delta = 0.25.  The
    control audits the same solves against the unmasked B, whose (1 - mask) B
    no refinement in time removes: it stalls below 1.5x (0.93-1.01x)."""
    sg = SpatialGrid(16, 2 * np.pi)
    fp, fm = to_first_order(_gaussian_data(sg, amp=1.0))
    for k, derivative in _NONLINEARITIES:
        ns = NonlinearitySpec(k, derivative)
        audited, unmasked = [], []
        for m in (32, 64, 128):
            cfg = SolveConfig(SpacetimeGrid(sg, m, 1.0), 0.25, max_iter=40)
            rep = solve_local(fp, fm, ns, cfg)
            assert rep.success
            audited.append(rep.residual / rep.residual_scale)
            b = _bilinear_textbook(*_completed(rep.result), ns, cfg.grid, masked=False)
            residual, scale = _residual_reference(rep, ns, cfg, b_spec=b)
            unmasked.append(residual / scale)
        falls = [coarse / fine for coarse, fine in zip(audited, audited[1:])]
        stalls = [coarse / fine for coarse, fine in zip(unmasked, unmasked[1:])]
        assert min(falls) >= 3.5, (k, derivative, falls)
        assert max(stalls) < 1.5, (k, derivative, stalls)


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
    runs = [(cfg, source, 2.0) for cfg in _window_configs(g, b=0.55) for source in (None, src)]
    runs += [(default_config(g, 0.25, max_iter=3, tol=0.0, b=0.55), src, 2.0),
             (default_config(g, 0.25, b=0.7), src, 1.5)]
    for cfg, source, r in runs:
        res = picard_iterate(fp, fm, ns, cfg, r=r, source=source)
        want = _picard_real_full_lattice(fp, fm, ns, cfg, source, r=r)
        assert res.real_data
        assert (res.iterations, res.status) == (want["iterations"], want["status"])
        for name, got in zip(("sp", "sm"), _completed(res)):
            assert _max_rel(got, want[name]) <= 1e-13, name
        for name in ("distances", "restricted_distances"):
            assert _max_rel(getattr(res, name), want[name]) <= 1e-13, name
        _assert_half_pair(res)


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
@pytest.mark.parametrize("real", [True, False])
def test_fixed_point_matches_whole_forcing_loop(k, derivative, real):
    """Iterating the nonlinearity alone changes the iteration map, not its
    fixed point: the converged iterates match those of the loop that
    iterates the whole forcing, w/2 included, to 1e-10 of the largest entry,
    on each window, with and without a source."""
    g = _small_grid()
    rng = np.random.default_rng(30 + 2 * k + len(derivative))
    fp, fm = _random_real_data(g, rng)
    if not real:
        fm = Spectrum(g.spatial, fm.data * np.exp(0.1j))
    src = spatial_forward_slices(SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j))
    ns = NonlinearitySpec(k, derivative)
    for cfg in _window_configs(g):
        # ten whole-forcing iterations, with no stop: its core converges
        # first, and on a window wider than the core the slices outside it
        # need more iterations
        oracle_cfg = dataclasses.replace(cfg, max_iter=10, tol=-1.0)
        for source in (None, src):
            res = picard_iterate(fp, fm, ns, cfg, source=source)
            sp, sm, dist, _ = _picard_reference(fp, fm, ns, oracle_cfg, source,
                                                whole_forcing=True)
            assert res.converged and dist[-1] <= cfg.tol and res.real_data == real
            scale = max(np.abs(sp).max(), np.abs(sm).max())
            got_p, got_m = _completed(res)
            assert np.abs(got_p - sp).max() <= 1e-10 * scale
            assert np.abs(got_m - sm).max() <= 1e-10 * scale


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
def test_first_contraction_factor_is_linear_in_the_data(stg, k, derivative):
    """rho_1 measures the quadratic term, so doubling the data doubles it, to
    1%.  A loop that iterates the linear term w/2 reads the same rho_1 at
    both amplitudes."""
    ns = NonlinearitySpec(k, derivative)
    cfg = default_config(stg, 0.25, max_iter=2, tol=0.0)
    rho1 = [picard_iterate(*_real_data(stg, amp), ns, cfg).rhos[0] for amp in (0.01, 0.02)]
    assert rho1[1] / rho1[0] == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("real", [True, False])
def test_linear_problem_converges_at_the_second_iterate(stg, monkeypatch, real):
    """With B = 0 and no source the iterated forcing vanishes: the first
    iterate solves the linear discrete problem, and the second repeats it."""
    monkeypatch.setattr(solver_mod, "_bilinear_spec",
                        lambda sp, sm, ns, g: np.zeros_like(sp))
    fp, fm = _real_data(stg)
    if not real:
        fm = Spectrum(stg.spatial, fm.data * np.exp(0.1j))
    for k, derivative in _NONLINEARITIES:
        res = picard_iterate(fp, fm, NonlinearitySpec(k, derivative), default_config(stg, 0.25))
        assert res.real_data == real and res.converged
        assert res.iterations == 2 and res.distances[0] > 0.0 and res.distances[1] == 0.0


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
    half = _slice_norms(g, (up[..., :h], um[..., :h]), r, 1.0)
    for got, u in zip(half, (up, um)):
        want = [sobolev_hat_norm(Spectrum(g.spatial, x), r, 1.0) for x in u]
        assert np.max(np.abs(got - want) / want) <= 1e-13
    spectra = [time_forward(g, u) for u in (up, um)]
    norms = _lattice_norms(g, [F[..., :h] for F in spectra], _xsb_weights(g, params, h), r)
    for got, F in zip(norms, spectra):
        want = xsb_norm(SpacetimeSpectrum(g, F), params)
        assert abs(got - want) <= 1e-13 * want


def test_empty_audit_is_unaudited():
    """A converged solve with no slice left to audit neither succeeds nor
    takes the mean of an empty slice."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 4, 1.0)
    fp, fm = to_first_order(_gaussian_data(g.spatial))
    rep = solve_local(fp, fm, NonlinearitySpec(1, "x1"), default_config(g, 0.5))
    assert rep.result.converged
    assert rep.status == "unaudited" and not rep.success
    assert np.isnan(rep.residual) and rep.residual_scale == 0.0


@pytest.mark.parametrize("k, derivative", [(2, "t"), (1, "x1")])
def test_real_solve_completes_no_half_spectrum(monkeypatch, k, derivative):
    """Past the real-data test, a real solve stays on the half lattice: with
    both completions refusing to run, solve_local with b set and a source
    gives the same report, bit for bit (the Z-norm included for k = 2)."""
    g = _small_grid()
    fp, fm = _real_data(g)
    rng = np.random.default_rng(5)
    source = SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j)
    ns, cfg = NonlinearitySpec(k, derivative), default_config(g, 0.25, b=0.55)
    want = solve_local(fp, fm, ns, cfg, source=source)
    # the real-data test itself reflects; it runs here, before the patches
    projected = solver_mod._hermitian_part(fp, fm, spatial_forward_slices(source))
    monkeypatch.setattr(solver_mod, "_hermitian_part", lambda *args: projected)

    def refuse(*args):
        raise AssertionError("a real solve completed a half spectrum")

    for name in ("hermitian_full", "conj_reflect"):
        monkeypatch.setattr(solver_mod, name, refuse)
    got = solve_local(fp, fm, ns, cfg, source=source)
    assert got.result.real_data and (got.z_value is not None) == (k == 2)
    _assert_same_report(got, want)


# ------------------------------------------ the core's equations by one sweep

def _causal_sweep(fp, fm, ns, cfg, source=None, gain=1.0):
    """(u_+, u_-) on the core from one causal sweep, no Picard iteration.

    The Picard loop's fixed point solves u = free + sweep(f(u)) on the core,
    and those equations are causal: the trapezoid step to slice k reads f
    between t = 0 and slice k (see _linear_sweep), and B is pointwise in
    time.  So this sweep mirrors _linear_sweep but forms f[k] =
    mask B(u[k])/J + S[k]/J as it goes, from slice k's own iterate, with
    the kernel on that one slice.  The terms -+h f[k] of u_+[k] and u_-[k]
    cancel in w[k]: a B with a spatial derivative reads w alone, so f[k]
    takes one kernel call; one with d_t reads u_+ - u_-, which carries
    -2h f[k], so f[k] is a fixed point of its own, iterated to 1e-14
    relative.  Real data run on the half lattice, as the loop does.  gain
    multiplies B, in the sweep alone.
    """
    g = cfg.grid
    projected = solver_mod._hermitian_part(fp, fm, source)
    if projected is not None:
        fp, fm, source = projected
    h = g.spatial.n // 2 + 1 if projected is not None else g.spatial.n
    core = _core_slices(g, cfg.delta)
    t = g.t_axis[core]
    m0 = g.origin_index - int(np.flatnonzero(core)[0])
    free_p, free_m = (_free_slices_at(g.spatial, x.data[..., :h], EvolutionSpec("J", sign), t)
                      for x, sign in ((fp, +1), (fm, -1)))
    weight = 1.0 / g.spatial.bracket[..., :h]
    src = None if source is None else source[core, ..., :h] * weight

    def forcing(k, up, um):
        f = gain * solver_mod._bilinear_spec(up[None], um[None], ns, g)[0] * weight
        return f if src is None else f + src[k]

    dp, dm, f = (np.zeros_like(free_p) for _ in range(3))
    f[m0] = forcing(m0, free_p[m0], free_m[m0])
    forward = tuple(_duhamel_step(g, sign, h) for sign in (+1, -1))
    backward = tuple(np.conj(step) for step in forward)
    for ks, prev, hh, (step_p, step_m) in ((range(m0 + 1, len(t)), -1, -0.5j * g.dt, forward),
                                           (range(m0 - 1, -1, -1), +1, 0.5j * g.dt, backward)):
        for k in ks:
            m = k + prev
            g_m = f[m] + weight / 2.0 * (free_p[m] + dp[m] + free_m[m] + dm[m])
            a_p = step_p * (dp[m] - hh * g_m)       # a_+ less its -h f[k]
            a_m = step_m * (dm[m] + hh * g_m)
            hcw = hh * (weight / 2.0 * (free_p[k] + free_m[k] + a_p + a_m))

            def parts(fk):
                return a_p - hh * fk - hcw, a_m + hh * fk + hcw

            def forced(fk):
                # f[k] from slice k's iterate when its own forcing is fk
                d_p, d_m = parts(fk)
                return forcing(k, free_p[k] + d_p, free_m[k] + d_m)

            fk = forced(0.0)
            while ns.derivative == "t":
                new = forced(fk)
                done = np.abs(new - fk).max() <= 1e-14 * np.abs(new).max()
                fk = new
                if done:
                    break
            f[k] = fk
            dp[k], dm[k] = parts(fk)
    return free_p + dp, free_m + dm


def _sweep_gap(res, sweep, cfg):
    """The largest slice norm of the loop's core slices less the sweep's,
    relative to the largest slice norm of the sweep's."""
    g = cfg.grid
    core = _core_slices(g, cfg.delta)
    gaps = _slice_norms(g, (res.sp[core] - sweep[0], res.sm[core] - sweep[1]), 2.0, 1.0)
    sizes = _slice_norms(g, sweep, 2.0, 1.0)
    return max(map(np.max, gaps)) / max(map(np.max, sizes))


@pytest.mark.parametrize("k, derivative", _NONLINEARITIES)
def test_converged_loop_is_the_causal_sweep(k, derivative):
    """A loop converged at tol = 1e-13 solves the core's discrete equations:
    its core slices agree with the causal sweep's to 1e-12 relative in the
    slice norms (3e-17 to 5e-17 measured), for real data (on the half
    lattice the loop ran on) and complex data, with and without a source.
    The control, the sweep with B x 1.01, disagrees by 1.3e-7 to 5e-7: it
    must stay a thousand times past the bound."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    rng = np.random.default_rng(40 + k)
    fp, fm = _random_real_data(g, rng, amp=0.05)
    real_src = spatial_forward_slices(SpacetimeField(g, 1e-3 * rng.standard_normal(g.shape) + 0j))
    twisted = Spectrum(g.spatial, fm.data * np.exp(0.1j))
    ns, cfg = NonlinearitySpec(k, derivative), default_config(g, 0.4, max_iter=40, tol=1e-13)
    for real, data in ((True, (fp, fm)), (False, (fp, twisted))):
        for source in (None, real_src):
            res = picard_iterate(*data, ns, cfg, source=source)
            assert res.converged and res.real_data == real
            assert _sweep_gap(res, _causal_sweep(*data, ns, cfg, source), cfg) <= 1e-12
            assert _sweep_gap(res, _causal_sweep(*data, ns, cfg, source, gain=1.01), cfg) > 1e-9


@pytest.mark.parametrize("real", [True, False])
def test_resumed_loop_is_the_causal_sweep(monkeypatch, sweeps, real):
    """A loop resumed from select_delta's trial, at tol = 1e-13, solves the
    same equations: its core slices agree with the causal sweep's to 1e-12
    relative.  select_delta's trial configs take the tol too, so that the
    resume key matches."""
    g = SpacetimeGrid(SpatialGrid(8, 2 * np.pi), 32, 1.0)
    d = _gaussian_data(g.spatial, amp=0.05)
    d = d if real else _twisted(d)
    ns = NonlinearitySpec(2, "t")
    monkeypatch.setattr(solver_mod, "default_config",
                        lambda *args, **kw: SolveConfig(*args, **kw, tol=1e-13))
    delta, _ = select_delta(d, ns, g)
    sweeps.clear()
    cfg = SolveConfig(g, delta, max_iter=40, tol=1e-13)
    res = picard_iterate(*to_first_order(d), ns, cfg)
    assert res.converged and res.real_data == real
    assert len(sweeps) == res.iterations - 2          # resumed from iteration 2
    assert _sweep_gap(res, _causal_sweep(*to_first_order(d), ns, cfg), cfg) <= 1e-12
