"""First-order reformulation, Picard contraction, residual consistency."""

import numpy as np
import pytest

from halfwave import solver as solver_mod
from halfwave.errors import GridMismatchError, ParameterError
from halfwave.grid import (
    Field,
    SpacetimeField,
    SpacetimeGrid,
    SpatialGrid,
    Spectrum,
    forward_transform,
    spatial_forward_slices,
)
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
from halfwave.spaces import WindowSpec


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


def test_first_order_roundtrip(sg):
    rng = np.random.default_rng(0)
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
