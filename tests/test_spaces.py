"""Norms and windows: closed-form oracles and structural properties."""

import numpy as np
import pytest

from halfwave.errors import ParameterError
from halfwave.grid import (
    Field,
    SpacetimeField,
    SpacetimeGrid,
    SpatialGrid,
    Spectrum,
    forward_transform,
)
from halfwave.spaces import (
    NormParams,
    _xsb_weight,
    WindowSpec,
    apply_window,
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
    u = SpacetimeField(stg, np.zeros((stg.m,) + stg.spatial.shape, complex))
    with pytest.raises(ParameterError):
        apply_window(u, WindowSpec(support=3.0))


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
            got = _xsb_weight(g, p)
            modulation = np.sqrt(1.0 + (tau - p.sign * sg.modulus) ** 2)
            want = sg.bracket ** (p.s * rp) * modulation ** (p.b * rp)
            assert got.shape == g.shape and got.flags.c_contiguous
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
    w = _xsb_weight(stg, p)
    total = np.sum(w * np.abs(F.data) ** p.rprime) * stg.spatial.dxi**3 * stg.dtau
    want = float(total ** (1.0 / p.rprime))
    assert xsb_norm(F, p) == want
    assert xsb_norm(SpacetimeField(stg, x), p) == want
    assert np.array_equal(F.data, keep)
