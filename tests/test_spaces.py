"""Norms and windows: closed-form oracles and structural properties."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from halfwave import spaces
from halfwave.errors import ParameterError
from halfwave.grid import (
    SpacetimeField,
    SpacetimeGrid,
    SpatialGrid,
    Spectrum,
    forward_transform,
    time_forward,
)
from halfwave.propagator import EvolutionSpec, free_spacetime
from halfwave.spaces import (
    NormParams,
    _block_norms,
    _free_xsb_norm,
    _xsb_weights,
    WindowSpec,
    dual_exponent,
    lr_xt_norm,
    restricted_norm,
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
    return SpacetimeGrid(sg, 16, 2.0)


def test_dual_exponent():
    assert dual_exponent(2.0) == pytest.approx(2.0)
    assert dual_exponent(1.5) == pytest.approx(3.0)
    assert dual_exponent(1.25) == pytest.approx(5.0)


def test_norm_params_validation():
    with pytest.raises(ParameterError):
        NormParams(1.0)  # r must exceed 1
    with pytest.raises(ParameterError):
        NormParams(2.5)
    with pytest.raises(ParameterError):
        NormParams(2.0, sign=0)


def test_gaussian_sobolev_oracle():
    """s = 0, r = 2 norm of exp(-|xi|^2/2) is pi^{3/4} (Gaussian integral)."""
    sg = SpatialGrid(32, 4 * np.pi)
    xi = sg.xi_modulus()
    F = Spectrum(sg, np.exp(-(xi**2) / 2.0))
    # accuracy limited by the |xi| > nyquist tail of the Gaussian
    assert sobolev_hat_norm(F, 2.0, 0.0) == pytest.approx(np.pi**0.75, rel=1e-5)


def test_sobolev_weight_effect(sg):
    """A single mode at xi0 has norm <xi0>^s * dxi^{3/r'}."""
    F = np.zeros(sg.shape, complex)
    idx = (10, 8, 8)
    F[idx] = 1.0
    xi0 = abs(sg.xi_axis[10])
    for r, s in [(2.0, 1.0), (1.5, 0.7)]:
        rp = dual_exponent(r)
        expect = np.sqrt(1 + xi0**2) ** s * sg.dxi ** (3.0 / rp)
        assert sobolev_hat_norm(Spectrum(sg, F), r, s) == pytest.approx(expect, rel=1e-12)


def test_lr_xt_parseval(stg):
    """r = 2 space-time norm equals (2 pi)^2 times the physical L2 norm."""
    rng = np.random.default_rng(0)
    shape = (stg.m,) + stg.spatial.shape
    u = SpacetimeField(stg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    l2 = np.sqrt(np.sum(np.abs(u.data) ** 2) * stg.spatial.dx**3 * stg.dt)
    assert lr_xt_norm(forward_transform(u), 2.0) == pytest.approx((2 * np.pi) ** 2 * l2, rel=1e-10)


@pytest.mark.parametrize("n, m, keep", [(12, 16, slice(3, 12)), (8, 8, slice(0, 8))])
def test_block_norms_match_lattice_formula(n, m, keep, monkeypatch):
    """The norms taken a chunk of 256 columns at a time (the point budget
    cut to 256 M), with a last chunk narrower than the rest at N = 12, equal
    the weighted sums over the zero-padded space-time spectrum; a product
    with no block has norm 0."""
    monkeypatch.setattr(spaces, "_CHUNK_POINTS", 256 * m)
    g = SpacetimeGrid(SpatialGrid(n, 3.0), m, 2.0)
    sg = g.spatial
    rng = np.random.default_rng(4)
    shape = (keep.stop - keep.start,) + sg.shape
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    padded = np.zeros(g.shape, dtype=complex)
    padded[keep] = block
    S = np.abs(time_forward(g, padded))
    tau = np.abs(g.tau_axis)
    terms = ((sg.shell_brackets**1.3, None), (sg.shell_values, tau))
    weights = (sg.bracket**1.3, sg.modulus[None] * tau[:, None, None, None])
    for r in (2.0, 1.5, 1.2):
        rp = dual_exponent(r)
        want = [(np.sum((wt * S) ** rp) * sg.dxi**3 * g.dtau) ** (1.0 / rp) for wt in weights]
        assert _block_norms(g, keep, block, r, terms) == pytest.approx(want, rel=1e-13)
    assert _block_norms(g, None, None, 2.0, terms) == [0.0, 0.0]


@pytest.mark.parametrize("m", [256, 1024])
def test_block_norms_chunks_keep_to_the_point_budget(m, monkeypatch):
    """Every time transform of _block_norms is bare and holds at most
    _CHUNK_POINTS lattice points, however long the time axis: M = 1024 on
    the 8^3 lattice takes ceil(8^3 M / 2^16) = 8 chunks of 64 columns."""
    g = SpacetimeGrid(SpatialGrid(8, 3.0), m, 2.0)
    keep = slice(m // 4, 3 * m // 4)
    rng = np.random.default_rng(5)
    block = rng.standard_normal((m // 2,) + g.spatial.shape) + 0j
    sizes = []
    real = spaces._dft

    def counted(data, *args, **kwargs):
        assert kwargs == {"time": g, "bare": True}
        sizes.append(data.shape)
        return real(data, *args, **kwargs)

    monkeypatch.setattr(spaces, "_dft", counted)
    terms = ((g.spatial.shell_brackets, None),)
    _block_norms(g, keep, block, 1.5, terms)
    assert len(sizes) == -(-8**3 * m // spaces._CHUNK_POINTS)
    assert all(rows == m and rows * cols <= spaces._CHUNK_POINTS for rows, cols in sizes)


def test_window_shape():
    w = WindowSpec(support=1.0, flat_fraction=0.5)
    t = np.array([0.0, 0.4, 0.5, 0.75, 1.0, 1.2])
    vals = window_values(w, t)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
    assert 0.0 < vals[3] < 1.0
    assert vals[4] == pytest.approx(0.0, abs=1e-14)
    assert vals[5] == 0.0
    # raised cosine hits 1/2 mid-ramp
    assert window_values(w, 0.75) == pytest.approx(0.5, rel=1e-12)


def test_window_full_core_is_indicator():
    """flat_fraction=1 is the sharp cutoff: exactly 1 on |t| <= support, 0 beyond."""
    t = np.linspace(-3.0, 3.0, 10001)
    for support in (0.3, 1.0, 2.5):
        vals = window_values(WindowSpec(support=support, flat_fraction=1.0), t)
        assert np.array_equal(vals, np.where(np.abs(t) <= support, 1.0, 0.0))


def test_window_support_check(stg):
    """A window wider than the time box is refused by restricted_norm, even
    when delta fits its core."""
    u = SpacetimeField(stg, np.zeros((stg.m,) + stg.spatial.shape, complex))
    with pytest.raises(ParameterError, match="exceeds the time half-width"):
        restricted_norm(u, 0.1, WindowSpec(support=3.0), NormParams(2.0))


def test_xsb_zero_modulation(stg):
    """A free-wave-like single (xi, tau) mode on the cone has minimal weight."""
    sg = stg.spatial
    F = np.zeros((stg.m,) + sg.shape, complex)
    # place mass at tau = |xi| = dxi * 2
    i_xi = sg.n // 2 + 2
    xi0 = sg.xi_axis[i_xi]
    i_tau = int(np.argmin(np.abs(stg.tau_axis - xi0)))
    F[i_tau, i_xi, sg.n // 2, sg.n // 2] = 1.0
    from halfwave.grid import SpacetimeSpectrum

    S = SpacetimeSpectrum(stg, F)
    on = xsb_norm(S, NormParams(2.0, 0.0, 1.0, +1))
    off = xsb_norm(S, NormParams(2.0, 0.0, 1.0, -1))
    assert off > on  # wrong sign pairing sees a large modulation


def test_rhs_monotone_in_s(stg):
    """<xi>^s weights grow with s, so the norm is monotone nondecreasing."""
    rng = np.random.default_rng(1)
    shape = (stg.m,) + stg.spatial.shape
    u = SpacetimeField(stg, rng.standard_normal(shape) + 0j)
    vals = [xsb_norm(u, NormParams(2.0, s, 0.5, +1)) for s in (0.5, 1.0, 1.5)]
    assert vals[0] <= vals[1] <= vals[2]


def test_z_norm_combines(stg):
    rng = np.random.default_rng(2)
    shape = (stg.m,) + stg.spatial.shape
    u = SpacetimeField(stg, rng.standard_normal(shape) + 0j)
    du = SpacetimeField(stg, rng.standard_normal(shape) + 0j)
    p = NormParams(2.0, 1.0, 0.5, +1)
    total = z_norm(u, du, p)
    assert total == pytest.approx(
        xsb_norm(u, p) + xsb_norm(du, NormParams(2.0, 0.0, 0.5, +1)), rel=1e-12
    )


def test_restricted_norm_bounds(stg):
    rng = np.random.default_rng(3)
    shape = (stg.m,) + stg.spatial.shape
    u = SpacetimeField(stg, rng.standard_normal(shape) + 0j)
    w = WindowSpec(support=1.0, flat_fraction=0.5)
    p = NormParams(2.0, 1.0, 0.5, +1)
    val = restricted_norm(u, 0.5, w, p)
    assert np.isfinite(val) and val > 0
    with pytest.raises(ParameterError):
        restricted_norm(u, 0.9, w, p)  # delta outside the flat core


def test_one_flat_core_slack(stg):
    """restricted_norm judges delta against the flat core with the one
    absolute slack of the core slices: it accepts a delta 5e-13 past a core
    of 0.25 and refuses one 2e-12 past it."""
    u = SpacetimeField(stg, np.ones((stg.m,) + stg.spatial.shape, complex))
    w = WindowSpec(support=0.5, flat_fraction=0.5)
    p = NormParams(2.0)
    assert w.flat_core == 0.25
    restricted_norm(u, 0.25 + 5e-13, w, p)
    with pytest.raises(ParameterError, match="exceeds the window flat core"):
        restricted_norm(u, 0.25 + 2e-12, w, p)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("half_length", [2.0 * np.pi, 1.3])
def test_sobolev_hat_norm_matches_lattice_formula(n, half_length):
    """The norm with its weight from the shell table equals the sum with
    <xi>^{s r'} evaluated on every lattice point, bit for bit."""
    sg = SpatialGrid(n, half_length)
    rng = np.random.default_rng(n)
    F = Spectrum(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))
    for r in (2.0, 1.5, 1.2):
        rp = dual_exponent(r)
        for s in (1.0, 1.4, -0.5):
            total = np.sum(sg.bracket ** (s * rp) * np.abs(F.data) ** rp) * sg.dxi**3
            assert sobolev_hat_norm(F, r, s) == float(total ** (1.0 / rp))


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("half_length", [2.0 * np.pi, 1.3])
@pytest.mark.parametrize("m", [16, 64, 256])
def test_xsb_weight_matches_lattice_formula(n, half_length, m):
    """The shell-table weight equals <xi>^{s r'} <tau - sign|xi|>^{b r'}
    evaluated on every lattice point, bit for bit, on 16 tau slices spread
    over the axis, both ends included."""
    g = SpacetimeGrid(SpatialGrid(n, half_length), m, 1.0)
    sg = g.spatial
    sample = np.linspace(0, m - 1, 16).round().astype(int)
    tau = g.tau_axis[sample, None, None, None]
    for r in (2.0, 1.5, 1.2):
        for sign in (+1, -1):
            p = NormParams(r, 1.25, 0.55, sign)
            rp = p.rprime
            got, mate = _xsb_weights(g, p, n)
            modulation = np.sqrt(1.0 + (tau - p.sign * sg.modulus) ** 2)
            want = sg.bracket ** (p.s * rp) * modulation ** (p.b * rp)
            assert got.shape == g.shape and got.flags.c_contiguous and mate is None
            assert np.array_equal(got[sample], want)


@pytest.mark.parametrize("r", [2.0, 1.5, 1.2])
def test_xsb_norm_matches_out_of_place_formula(stg, r):
    """|F|^{r'} w formed in place sums bit for bit as the out-of-place
    formula, for a spectrum and for the field it transforms."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(stg.shape) + 1j * rng.standard_normal(stg.shape)
    F = forward_transform(SpacetimeField(stg, x))
    keep = F.data.copy()
    p = NormParams(r, 1.0, 0.55, +1)
    w = _xsb_weights(stg, p, stg.spatial.n)[0]
    total = np.sum(w * np.abs(F.data) ** p.rprime) * stg.spatial.dxi**3 * stg.dtau
    want = float(total ** (1.0 / p.rprime))
    assert xsb_norm(F, p) == want
    assert xsb_norm(SpacetimeField(stg, x), p) == want
    assert np.array_equal(F.data, keep)


_CHI_WIDTH = 0.12


def _gaussian_free_wave():
    """(phi, g, chi): complex noise times exp(-|xi|^2/4) on 16^3 with
    L = 2 pi, and chi(t) = exp(-t^2/(2 w^2)) on M = 256, T = 4."""
    sg = SpatialGrid(16, 2.0 * np.pi)
    g = SpacetimeGrid(sg, 256, 4.0)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape)
    phi = Spectrum(sg, noise * np.exp(-sg.xi_modulus() ** 2 / 4.0))
    return phi, g, np.exp(-g.t_axis**2 / (2.0 * _CHI_WIDTH**2))


def _xsb_closed_form(phi, r, s, b):
    """||chi e^{it|D|} phi||_X = ||phi||_{H^r_s} (int <sigma>^{b r'} |chi^(sigma)|^{r'})^{1/r'},
    chi^(sigma) = w sqrt(2 pi) exp(-w^2 sigma^2 / 2); the integrand is even."""
    rp = dual_exponent(r)

    def integrand(sigma):
        chi_hat = _CHI_WIDTH * np.sqrt(2.0 * np.pi) * np.exp(-(_CHI_WIDTH * sigma) ** 2 / 2.0)
        return (1.0 + sigma**2) ** (b * rp / 2.0) * chi_hat**rp

    half, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13)
    return sobolev_hat_norm(phi, r, s) * (2.0 * half) ** (1.0 / rp)


def _xsb_deviations(r, s, b):
    """Relative deviations of xsb_norm and _free_xsb_norm from the closed form."""
    phi, g, chi = _gaussian_free_wave()
    p = NormParams(r, s, b, +1)
    u = free_spacetime(phi, g, EvolutionSpec("D", +1)).data * chi[:, None, None, None]
    want = _xsb_closed_form(phi, r, s, b)
    return [abs(got / want - 1.0)
            for got in (xsb_norm(SpacetimeField(g, u), p), _free_xsb_norm(phi, g, chi, p))]


@pytest.mark.parametrize("r, s, b", [(2.0, 1.0, 0.55), (1.5, 2.0, 0.7)])
def test_xsb_norm_closed_form(r, s, b):
    """The X-norm of a Gaussian-windowed free wave is the data norm times a
    1-D integral (measured 8.4e-11 and 1.7e-10 relative, both functions)."""
    assert max(_xsb_deviations(r, s, b)) <= 1e-8


@pytest.mark.parametrize("r, s, b", [(2.0, 1.0, 0.55), (1.5, 2.0, 0.7)])
def test_xsb_closed_form_catches_wrong_b(r, s, b, monkeypatch):
    """A modulation weight with 1.02 b misses the closed form (2.1e-2, 2.8e-2)."""
    real = spaces._xsb_weight_table
    monkeypatch.setattr(spaces, "_xsb_weight_table",
                        lambda grid, p: real(grid, dataclasses.replace(p, b=1.02 * p.b)))
    assert min(_xsb_deviations(r, s, b)) > 1e-8
