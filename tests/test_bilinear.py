"""Reduction integrals and surface masses against closed-form oracles."""

import inspect

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.special import beta

from halfwave import bilinear, kernels, verify
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
from halfwave.grid import (
    _checkerboard,
    _dft_scale,
    conj_reflect,
    SpacetimeGrid,
    SpatialGrid,
    Spectrum,
    time_forward,
)
from halfwave.propagator import EvolutionSpec, free_slices
from halfwave.spaces import WindowSpec, _block_norms, _window_block, window_values
from halfwave.verify import (
    DataFamily,
    _data_pair,
    _fixed_window_grid,
    family_spectrum,
    scaling_grid,
)


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
                        box_radius=4.0).empty
    assert surface_mass(np.zeros(3), 2.0, SignPair(+1, +1), PowerWeight(), h=0.2).empty
    assert "box_center" not in inspect.signature(surface_mass).parameters


def test_surface_mass_refines_three_times():
    """A tolerance no refinement meets stops after three doublings of the
    cells, unconverged, with the last value."""
    xi = np.array([2.0, 0.0, 0.0])
    res = surface_mass(xi, 5.0, SignPair(+1, +1), PowerWeight(), h=0.2, tol=0.0, n0=16)
    assert not res.converged and res.n_final == 16 * 2**3
    assert "max_refine" not in inspect.signature(surface_mass).parameters


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
    """The full-lattice formula in the block stage's folded arithmetic: both
    free waves, from the data times the checkerboard S, through bare scipy
    inverse transforms on every time slice, multiplied, windowed times the
    inverse scale (two inverse scales and one forward), signed, transformed
    bare and multiplied by S; then the stack transformed in time."""
    return _factor_product_reference(u0, v0, sp, g, window_values(w, g.t_axis))


def _factor_product_reference(u0, v0, sp, g, factor):
    """_product_reference with any time factor in place of the window."""
    sg = g.spatial
    signs = _checkerboard(sg.n)
    uf, vf = (sfft.ifftn(free_slices(Spectrum(sg, a.data * signs), g, EvolutionSpec("D", sign)),
                         axes=(1, 2, 3))
              for a, sign in ((u0, sp.first), (v0, sp.second)))
    win = factor[:, None, None, None] * _dft_scale(sg, inverse=True)
    return time_forward(g, sfft.fftn(uf * vf * win * signs, axes=(1, 2, 3)) * signs)


def _counted_free_slices(monkeypatch):
    """The sizes of the time axes _product_block forms free slices on."""
    formed = []
    real = bilinear._free_slices_at

    def counted(u, e, t):
        formed.append(t.size)
        return real(u, e, t)

    monkeypatch.setattr(bilinear, "_free_slices_at", counted)
    return formed


@pytest.mark.parametrize("lam", [2.0, 16.0])
@pytest.mark.parametrize("flat_fraction", [0.5, 1.0])
@pytest.mark.parametrize("full_support", [False, True])
def test_product_transform_matches_reference_bitwise(lam, flat_fraction, full_support,
                                                     monkeypatch):
    """The product formed only on the slices where the window is nonzero
    equals the full-lattice formula bit for bit; with the sharp window over
    the whole time range every slice is formed.  The group is widened to
    2^17 points, 32 slices, so that each block is formed in one group."""
    monkeypatch.setattr(bilinear, "_GROUP_POINTS", 1 << 17)
    g, ladder = scaling_grid(lam)
    support = g.half_time if full_support else ladder.support
    w = WindowSpec(flat_fraction=flat_fraction, support=support)
    u0, v0 = _data_pair("random-bandlimited", lam, 5, g.spatial)
    formed = _counted_free_slices(monkeypatch)
    for sp in (SignPair(+1, +1), SignPair(+1, -1), SignPair(-1, +1)):
        got = product_transform_direct(u0, v0, sp, g, w)
        assert np.array_equal(got.data, _product_reference(u0, v0, sp, g, w))
    nonzero = np.flatnonzero(window_values(w, g.t_axis))
    assert set(formed) == {nonzero[-1] + 1 - nonzero[0]}
    if full_support and flat_fraction == 1.0:
        assert formed[0] == g.m
    elif not full_support:
        assert formed[0] <= g.m // 2 + 1


def test_product_block_groups_bitwise(monkeypatch):
    """A window block of more slices than one group is formed group by
    group, and the product still equals the full-lattice formula bit for
    bit; the block stage keeps the window block."""
    g, w = _fixed_window_grid(16.0, 16)         # M = 256: a block of 127 slices
    u0, v0 = _data_pair("random-bandlimited", 16.0, 5, g.spatial)
    formed = _counted_free_slices(monkeypatch)
    sp = SignPair(+1, -1)
    got = product_transform_direct(u0, v0, sp, g, w)
    assert np.array_equal(got.data, _product_reference(u0, v0, sp, g, w))
    nonzero = np.flatnonzero(window_values(w, g.t_axis))
    block = nonzero[-1] + 1 - nonzero[0]
    assert len(formed) >= 8 and sum(formed) == 2 * block
    keep, _ = bilinear._product_block(u0, v0, sp, g, window_values(w, g.t_axis))
    assert keep == slice(nonzero[0], nonzero[-1] + 1)
    assert "spectral" not in inspect.signature(bilinear._product_block).parameters


def _real_pair(lam, g):
    """Two different spectra of real data: a Gaussian bump, which is even,
    and random band-limited data made real, which is not."""
    u0, _ = _data_pair("random-bandlimited", lam, 7, g.spatial)
    odd = Spectrum(g.spatial, (u0.data + conj_reflect(u0.data)) / 2.0)
    return family_spectrum(DataFamily("gaussian-bump", lam), g.spatial, None), odd


def _block_product(u0, v0, sp, g, factor):
    return bilinear._time_padded(g, *bilinear._product_block(u0, v0, sp, g, factor)).data


def _close(got, want):
    return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


_SIGN_PAIRS = (SignPair(+1, +1), SignPair(+1, -1), SignPair(-1, +1))


@pytest.mark.parametrize("group", [16, 3])
def test_symmetric_products_match_the_full_lattice_formula(group, monkeypatch):
    """Each path the data's symmetries open is within 1e-13 of the
    full-lattice formula: a repeated factor (one wave, squared: bit for bit
    at equal signs), a repeated real factor at opposite signs (the wave
    times its conjugate), and the time reversal of a centred block of real
    data, for equal and different data at every sign pair; and an
    off-centre block of a repeated real factor, which takes the conjugate
    without the reversal.  The 15-slice block is formed in one group, and
    in groups of 3 slices, whose mirrors land across the block."""
    monkeypatch.setattr(bilinear, "_GROUP_POINTS", group * 16**3)
    lam = 4.0
    g, w = scaling_grid(lam)
    win = window_values(w, g.t_axis)
    shifted = np.roll(win, 1)
    u0, v0 = _data_pair("random-bandlimited", lam, 5, g.spatial)
    a, b = _real_pair(lam, g)
    assert bilinear._real(a) and bilinear._real(b) and not bilinear._real(u0)
    for sp in _SIGN_PAIRS:
        # not real: a repeated factor at opposite signs is formed twice
        got = _block_product(u0, u0, sp, g, win)
        assert np.array_equal(got, _factor_product_reference(u0, u0, sp, g, win))
        for x, y, factor in ((a, a, win), (a, b, win), (b, a, win), (a, a, shifted)):
            reverses = bilinear._reverses(x, y, g, factor, _window_block(factor))
            assert reverses == (factor is win)
            assert _close(_block_product(x, y, sp, g, factor),
                          _factor_product_reference(x, y, sp, g, factor))


@pytest.mark.parametrize("grid", ["scaling", "fixed-window"])
def test_half_lattice_norms_match_the_full_lattice(grid):
    """The norms of a conjugate-symmetric block on its half lattice agree
    with those of the same block on the full lattice to 1e-13."""
    g, w = scaling_grid(4.0) if grid == "scaling" else _fixed_window_grid(16.0, 16)
    win = window_values(w, g.t_axis)
    a, b = _real_pair(4.0, g)
    terms = verify._key_tables(g, 1.25)
    for sp in _SIGN_PAIRS[:2]:
        keep, block = bilinear._product_block(a, b, sp, g, win)
        for r in (2.0, 1.5):
            full = _block_norms(g, keep, block, r, terms)
            half = _block_norms(g, keep, block[..., : g.spatial.n // 2 + 1], r, terms)
            assert half == pytest.approx(full, rel=1e-13)


def test_reversed_block_forms_half_its_slices(monkeypatch):
    """A centred block of real data forms ceil(K/2) slices, from t = 0 up:
    one _free_slices_at call per group for a repeated factor at either sign
    pair, two for different data."""
    g, w = _fixed_window_grid(16.0, 16)         # M = 256: a block of 127 slices
    win = window_values(w, g.t_axis)
    keep = _window_block(win)
    size = keep.stop - keep.start
    assert size == 127 and keep.start + keep.stop - 1 == 2 * g.origin_index
    a, b = _real_pair(16.0, g)
    step = bilinear._GROUP_POINTS // 16**3
    groups = -(-(size + 1) // 2 // step)
    for x, y, sp, per_group in ((a, a, SignPair(+1, +1), 1), (a, a, SignPair(+1, -1), 1),
                                (a, b, SignPair(+1, -1), 2)):
        formed = _counted_free_slices(monkeypatch)
        bilinear._product_block(x, y, sp, g, win)
        assert sum(formed) == per_group * (size + 1) // 2
        assert len(formed) == per_group * groups


def test_symmetry_fallbacks_keep_the_general_path(monkeypatch):
    """Data real only to 1e-15, and real data on an off-centre block, take
    the general path: both waves on every slice of the block, bit for bit
    the full-lattice formula."""
    g, w = scaling_grid(4.0)
    win = window_values(w, g.t_axis)
    a, b = _real_pair(4.0, g)
    near = a.data.copy()
    near[g.spatial.n // 2 + 1, 3, 5] *= 1.0 + 1e-15
    near = Spectrum(g.spatial, near)
    assert not bilinear._real(near)
    shifted = np.roll(win, 1)
    for x, y, factor in ((near, b, win), (b, near, win), (a, b, shifted)):
        keep = _window_block(factor)
        assert not bilinear._reverses(x, y, g, factor, keep)
        for sp in _SIGN_PAIRS:
            formed = _counted_free_slices(monkeypatch)
            got = _block_product(x, y, sp, g, factor)
            assert np.array_equal(got, _factor_product_reference(x, y, sp, g, factor))
            assert formed == [keep.stop - keep.start] * 2


def _symbol_product_reference(u0, v0, sp, mask, g, w):
    """The all-slices formula: both free-wave spectra and their masked
    convolution on every time slice, then windowed and transformed."""
    sg = g.spatial
    us = free_slices(u0, g, EvolutionSpec("D", sp.first))
    vs = free_slices(v0, g, EvolutionSpec("D", sp.second))
    conv = kernels.masked_convolution(us, vs, sg.xi_axis, mask)
    conv *= (2.0 * np.pi) ** -3 * sg.dxi**3
    return time_forward(g, conv * window_values(w, g.t_axis)[:, None, None, None])


@pytest.mark.parametrize("lam", [2.0, 4.0, 8.0])
def test_symbol_product_matches_all_slices_formula(lam, monkeypatch):
    """The masked convolution formed on the slices where the window is
    nonzero alone equals the all-slices formula bit for bit."""
    g, w = scaling_grid(lam)
    convolved = []
    conv = kernels.masked_convolution

    def counted(us, vs, *args):
        convolved.append((len(us), len(vs)))
        return conv(us, vs, *args)

    monkeypatch.setattr(kernels, "masked_convolution", counted)
    sp, masks = SignPair(+1, -1), region_masks()
    for seed in range(3):
        u0, v0 = _data_pair("random-bandlimited", lam, seed, g.spatial)
        for mask in (masks["P"], masks["Q"], masks["one"]):
            got = bilinear_symbol_product(u0, v0, sp, mask, g, w)
            assert np.array_equal(got.data, _symbol_product_reference(u0, v0, sp, mask, g, w))
    nonzero = np.flatnonzero(window_values(w, g.t_axis))
    block = nonzero[-1] + 1 - nonzero[0]
    assert block < g.m and set(convolved) == {(block, block), (g.m, g.m)}


def test_product_transform_window_wider_than_time_range():
    """Both products refuse a window wider than the time box."""
    sg, g, w, u0, v0 = _small_setup()
    wide = WindowSpec(support=1.01 * g.half_time, flat_fraction=0.5)
    with pytest.raises(ParameterError):
        product_transform_direct(u0, v0, SignPair(+1, +1), g, wide)
    with pytest.raises(ParameterError):
        bilinear_symbol_product(u0, v0, SignPair(+1, +1), region_masks()["one"], g, wide)


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
