"""Reduction integrals and surface masses against closed-form oracles."""

import numpy as np
import pytest
from scipy.special import beta

from halfwave import bilinear
from halfwave.bilinear import (
    PowerWeight,
    ReductionSpec,
    SignPair,
    bilinear_symbol_product,
    product_transform_direct,
    reduction_integral,
    surface_mass,
)
from halfwave.dyadic import region_masks
from halfwave.errors import BudgetError, DivergentIntegralError, ParameterError
from halfwave.grid import SpacetimeField, SpacetimeGrid, SpatialGrid, Spectrum, forward_transform
from halfwave.propagator import EvolutionSpec, free_spacetime
from halfwave.spaces import WindowSpec, apply_window, window_values
from halfwave.verify import _data_pair, scaling_grid


def _reduce(a, p, q, region, c1=2.0):
    """The value of a reduction integral that must report convergence."""
    res = reduction_integral(ReductionSpec(a=a, p=p, q=q, region=region, c1=c1))
    assert res.converged and res.abserr >= 0.0
    return res.value


def test_elliptic_constant():
    """p = q = 0 integrates the unit interval pair exactly: length 2."""
    for a in (1.0, 2.0, 10.0, 1000.0):
        assert _reduce(a, 0.0, 0.0, "elliptic") == pytest.approx(2.0, rel=1e-12)


def test_elliptic_pi_oracle():
    """At a = 1 the elliptic integral is 2^{p+q+1} B(p+1, q+1); p = -1/2,
    q = 1/2 gives int_{-1}^1 sqrt((1-x)/(1+x)) dx = pi."""
    assert _reduce(1.0, -0.5, 0.5, "elliptic") == pytest.approx(np.pi, rel=1e-13)
    for p, q in [(0.0, 0.0), (-0.95, 0.3), (0.4, -0.95), (-0.95, -0.95), (1.7, -0.6), (2.0, 1.5)]:
        exact = 2.0 ** (p + q + 1.0) * beta(p + 1.0, q + 1.0)
        assert _reduce(1.0, p, q, "elliptic") == pytest.approx(exact, rel=1e-13)


def test_far_inverse_square():
    """At a = 0 the far integral is int_{c1}^inf x^{p+q} dx = c1^e/(-e) with
    e = p+q+1; p = q = -1, c1 = 2 gives int_2^inf x^{-2} dx = 1/2."""
    assert _reduce(0.0, -1.0, -1.0, "hyperbolic-far") == pytest.approx(0.5, rel=1e-13)
    for p, q, c1 in [(-0.95, -0.3, 2.0), (-0.2, -0.95, 3.5), (0.5, -2.5, 1.5), (-1.6, -1.3, 2.0)]:
        e = p + q + 1.0
        assert _reduce(0.0, p, q, "hyperbolic-far", c1) == pytest.approx(c1**e / -e, rel=1e-13)


def test_near_constant():
    """p = q = 0 gives the length c1 - 1; at a = 0 the near integral is
    int_1^{c1} x^{p+q} dx = (c1^e - 1)/e with e = p+q+1."""
    assert _reduce(0.5, 0.0, 0.0, "hyperbolic-near") == pytest.approx(1.0, rel=1e-12)
    for p, q, c1 in [(-0.95, 0.3, 2.0), (0.4, -0.95, 3.5), (-0.95, -0.95, 2.0), (1.5, 2.0, 1.5)]:
        e = p + q + 1.0
        assert _reduce(0.0, p, q, "hyperbolic-near", c1) == pytest.approx((c1**e - 1.0) / e,
                                                                          rel=1e-13)


def test_near_singular_end_is_unconverged():
    """With the zero x = -a just outside the end x = -1 the rule cannot reach
    its tolerance: it says so, and its error estimate bounds the true error
    (the reference value is a 40-digit evaluation)."""
    res = reduction_integral(ReductionSpec(a=1.0 + 1e-15, p=-0.9, q=0.3, region="elliptic"))
    assert res.converged is False
    assert res.abserr >= abs(res.value - 12.304143010284637)


def test_symmetry_pq_swap():
    for a in (1.0, 3.0):
        one = _reduce(a, -0.4, 0.3, "elliptic")
        two = _reduce(a, 0.3, -0.4, "elliptic")
        assert one == pytest.approx(two, rel=1e-10)


def test_large_a_limit():
    """For p + q = 0 the elliptic integral tends to the interval length 2."""
    v100 = _reduce(100.0, -0.7, 0.7, "elliptic")
    v1000 = _reduce(1000.0, -0.7, 0.7, "elliptic")
    assert abs(v100 - v1000) / v1000 < 0.01
    assert v1000 == pytest.approx(2.0, rel=1e-2)


def test_reduction_validation():
    with pytest.raises(ParameterError):
        ReductionSpec(a=0.5, p=0.0, q=0.0, region="elliptic")  # needs a >= 1
    with pytest.raises(ParameterError):
        ReductionSpec(a=2.0, p=0.0, q=0.0, region="hyperbolic-near")  # needs |a| <= 1
    with pytest.raises(ParameterError):
        ReductionSpec(a=1.0, p=-1.2, q=0.0, region="elliptic")  # divergent endpoint
    with pytest.raises(DivergentIntegralError):
        ReductionSpec(a=0.0, p=-0.5, q=-0.4, region="hyperbolic-far")  # p+q >= -1
    with pytest.raises(ParameterError):
        ReductionSpec(a=1.0, p=0.0, q=0.0, region="nowhere")


def test_sign_pair():
    assert SignPair(+1, +1).elliptic
    assert SignPair(-1, -1).elliptic
    assert not SignPair(+1, -1).elliptic
    with pytest.raises(ParameterError):
        SignPair(0, 1)


def test_surface_mass_ellipsoid_oracle():
    """Weight 1 elliptic mass is d/dtau of the ellipsoid volume:
    pi (3 tau^2 - |xi|^2) / 6."""
    xi = np.array([2.0, 0.0, 0.0])
    tau = 5.0
    exact = np.pi * (3 * tau**2 - 4.0) / 6.0
    res = surface_mass(xi, tau, SignPair(+1, +1), PowerWeight(), h=0.2, n0=48)
    assert not res.empty
    assert res.value == pytest.approx(exact, rel=0.02)


def test_surface_mass_power_weight_oracle():
    """rho1^2 rho2^0 weight checked against the 1-D reduction formula
    SM = (pi/4) 2^{a1+a2} |xi|^{2-a1-a2} I(a, 1-a1, 1-a2)."""
    xi = np.array([3.0, 0.0, 0.0])
    tau = 7.0
    a1, a2 = 0.5, 1.0
    reduced = _reduce(tau / 3.0, 1 - a1, 1 - a2, "elliptic")
    exact = (np.pi / 4) * 2 ** (a1 + a2) * 3.0 ** (2 - a1 - a2) * reduced
    res = surface_mass(xi, tau, SignPair(+1, +1), PowerWeight(e1=-a1, e2=-a2), h=0.15, n0=64)
    assert res.value == pytest.approx(exact, rel=0.03)


def test_surface_mass_empty():
    xi = np.array([2.0, 0.0, 0.0])
    assert surface_mass(xi, 1.5, SignPair(+1, +1), PowerWeight(), h=0.2).empty
    assert surface_mass(xi, -5.0, SignPair(+1, +1), PowerWeight(), h=0.2).empty
    assert surface_mass(xi, 3.0, SignPair(+1, -1), PowerWeight(), h=0.2,
                        box_center=np.zeros(3), box_radius=4.0).empty
    assert surface_mass(np.zeros(3), 2.0, SignPair(+1, +1), PowerWeight(), h=0.2).empty


def test_surface_mass_hyperbolic_needs_box():
    xi = np.array([4.0, 0.0, 0.0])
    with pytest.raises(ParameterError):
        surface_mass(xi, 1.0, SignPair(+1, -1), PowerWeight(), h=0.2)


def _small_setup():
    sg = SpatialGrid(8, np.pi)
    g = SpacetimeGrid(sg, 16, 2.0)
    w = WindowSpec(support=1.5, flat_fraction=0.5)
    rng = np.random.default_rng(0)
    xi = sg.xi_modulus()
    u0 = Spectrum(sg, (rng.standard_normal(sg.shape) + 0j) * (xi < 3.0))
    v0 = Spectrum(sg, (rng.standard_normal(sg.shape) + 0j) * (xi < 3.0))
    return sg, g, w, u0, v0


def test_symbol_product_matches_direct():
    """Full-mask convolution product equals the configuration-space product."""
    sg, g, w, u0, v0 = _small_setup()
    sp = SignPair(+1, -1)
    direct = product_transform_direct(u0, v0, sp, g, w)
    conv = bilinear_symbol_product(u0, v0, sp, region_masks()["one"], g, w)
    scale = np.abs(direct.data).max()
    assert np.abs(direct.data - conv.data).max() < 1e-10 * scale


def test_symbol_product_region_partition():
    sg, g, w, u0, v0 = _small_setup()
    sp = SignPair(+1, -1)
    masks = region_masks()
    P = bilinear_symbol_product(u0, v0, sp, masks["P"], g, w)
    Q = bilinear_symbol_product(u0, v0, sp, masks["Q"], g, w)
    full = bilinear_symbol_product(u0, v0, sp, masks["one"], g, w)
    assert np.abs(P.data + Q.data - full.data).max() < 1e-10 * np.abs(full.data).max()


def test_symbol_product_requires_maskspec():
    sg, g, w, u0, v0 = _small_setup()

    def ll(x1, x2):
        return np.linalg.norm(x1, axis=-1) < 0.5 * np.linalg.norm(x2, axis=-1)

    with pytest.raises(ParameterError):
        bilinear_symbol_product(u0, v0, SignPair(+1, +1), ll, g, w)


def test_exchange_symmetry():
    """Swapping the inputs together with their signs leaves the product fixed."""
    sg, g, w, u0, v0 = _small_setup()
    one = product_transform_direct(u0, v0, SignPair(+1, -1), g, w)
    two = product_transform_direct(v0, u0, SignPair(-1, +1), g, w)
    assert np.abs(one.data - two.data).max() < 1e-10 * np.abs(one.data).max()


def _product_reference(u0, v0, sp, g, w):
    """The full-lattice formula: both free waves in configuration space on
    every time slice, multiplied, windowed and transformed."""
    uf = free_spacetime(u0, g, EvolutionSpec("D", sp.first))
    vf = free_spacetime(v0, g, EvolutionSpec("D", sp.second))
    return forward_transform(apply_window(SpacetimeField(g, uf.data * vf.data), w))


@pytest.mark.parametrize("lam", [2.0, 16.0])
@pytest.mark.parametrize("flat_fraction", [0.5, 1.0])
@pytest.mark.parametrize("full_support", [False, True])
def test_product_transform_matches_reference_bitwise(lam, flat_fraction, full_support,
                                                     monkeypatch):
    """The product formed only on the slices where the window is nonzero
    equals the full-lattice formula bit for bit; with the sharp window over
    the whole time range every slice is formed."""
    g, ladder = scaling_grid(lam)
    support = g.half_time if full_support else ladder.support
    w = WindowSpec(flat_fraction=flat_fraction, support=support)
    u0, v0 = _data_pair("random-bandlimited", lam, 5, g.spatial)
    formed = []
    real = bilinear._free_slices_at

    def counted(u, e, t):
        formed.append(t.size)
        return real(u, e, t)

    monkeypatch.setattr(bilinear, "_free_slices_at", counted)
    for sp in (SignPair(+1, +1), SignPair(+1, -1), SignPair(-1, +1)):
        got = product_transform_direct(u0, v0, sp, g, w)
        assert np.array_equal(got.data, _product_reference(u0, v0, sp, g, w).data)
    nonzero = np.flatnonzero(window_values(w, g.t_axis))
    assert set(formed) == {nonzero[-1] + 1 - nonzero[0]}
    if full_support and flat_fraction == 1.0:
        assert formed[0] == g.m
    elif not full_support:
        assert formed[0] <= g.m // 2 + 1


def test_product_transform_window_wider_than_time_range():
    sg, g, w, u0, v0 = _small_setup()
    wide = WindowSpec(support=1.01 * g.half_time, flat_fraction=0.5)
    with pytest.raises(ParameterError):
        product_transform_direct(u0, v0, SignPair(+1, +1), g, wide)


def test_single_mode_peak_location():
    """Product of two identical single modes peaks at doubled (xi, tau)."""
    sg = SpatialGrid(8, np.pi)
    g = SpacetimeGrid(sg, 32, 4.0)
    w = WindowSpec(support=3.5, flat_fraction=0.5)
    F = np.zeros(sg.shape, complex)
    i = sg.n // 2 + 1
    F[i, sg.n // 2, sg.n // 2] = 1.0  # xi0 = dxi * e1
    u0 = Spectrum(sg, F)
    S = product_transform_direct(u0, u0, SignPair(+1, +1), g, w)
    it, i1, i2, i3 = np.unravel_index(np.argmax(np.abs(S.data)), S.data.shape)
    xi0 = sg.xi_axis[i]
    assert sg.xi_axis[i1] == pytest.approx(2 * xi0)
    assert (i2, i3) == (sg.n // 2, sg.n // 2)
    assert g.tau_axis[it] == pytest.approx(2 * xi0, abs=g.dtau)


def test_convolution_budget():
    sg = SpatialGrid(32, np.pi)
    g = SpacetimeGrid(sg, 4, 1.0)
    w = WindowSpec(support=0.9)
    z = Spectrum(sg, np.zeros(sg.shape, complex))
    with pytest.raises(BudgetError):
        bilinear_symbol_product(z, z, SignPair(+1, +1), region_masks()["one"], g, w)
