"""Lattice kernels against direct reference sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave import kernels
from halfwave.bilinear import PowerWeight, SignPair, surface_mass
from halfwave.dyadic import region_masks, shell_mask
from halfwave.errors import ParameterError
from halfwave.grid import SpacetimeGrid, SpatialGrid, Spectrum
from halfwave.propagator import EvolutionSpec, free_slices


@pytest.fixture
def sg():
    return SpatialGrid(8, np.pi)


def _random_slices(sg, m=2, seed=0):
    rng = np.random.default_rng(seed)
    shape = (m,) + sg.shape
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    )


def _direct_convolution(us, vs, ax, rule):
    """O(N^6) reference: out(xi) = sum_{xi1+xi2=xi} mask * u(xi1) v(xi2).

    The mask is rule(|xi1|, |xi2|, |xi1 + xi2|).  The moduli are looked up:
    |xi| per lattice point, and |xi1 + xi2| by the per-axis index sum
    a1 + a2: ax is uniform, so ax[a1] + ax[a2] = 2 ax[0] + (a1 + a2) dxi.
    """
    m, n = us.shape[0], us.shape[1]
    half = n // 2
    mod = np.sqrt(ax[:, None, None] ** 2 + ax[None, :, None] ** 2
                  + ax[None, None, :] ** 2).tolist()
    sums = 2.0 * ax[0] + (ax[1] - ax[0]) * np.arange(2 * n - 1)
    mod_sum = np.sqrt(sums[:, None, None] ** 2 + sums[None, :, None] ** 2
                      + sums[None, None, :] ** 2).tolist()
    out = np.zeros_like(us)
    for a1 in range(n):
        for b1 in range(n):
            for g1 in range(n):
                n1 = mod[a1][b1][g1]
                for a2 in range(n):
                    for b2 in range(n):
                        for g2 in range(n):
                            n12 = mod_sum[a1 + a2][b1 + b2][g1 + g2]
                            if not rule(n1, mod[a2][b2][g2], n12):
                                continue
                            i = ((a1 + a2 - half) % n, (b1 + b2 - half) % n,
                                 (g1 + g2 - half) % n)
                            out[(slice(None),) + i] += us[:, a1, b1, g1] * vs[:, a2, b2, g2]
    return out


# Each rule written out on its own, not through MaskSpec, so that the O(N^6)
# reference pins every mask the kernels evaluate.
_ORACLE_RULES = {
    "one": lambda n1, n2, n12: True,
    "geq": lambda n1, n2, n12: n1 >= 0.5 * n2,
    "ll": lambda n1, n2, n12: n1 < 0.5 * n2,
    "P": lambda n1, n2, n12: n1 + n2 <= 2.0 * n12,
    "Q": lambda n1, n2, n12: n1 + n2 > 2.0 * n12,
    "shell_ll_2": lambda n1, n2, n12: 2.0 < n1 <= 4.0 and n1 < 0.5 * n2,
}


def _mask(name):
    return shell_mask(2) if name == "shell_ll_2" else region_masks()[name]


@pytest.mark.parametrize("name", sorted(_ORACLE_RULES))
def test_convolution_matches_direct(sg, name):
    us, vs = _random_slices(sg)
    got = kernels.masked_convolution(us, vs, sg.xi_axis, _mask(name))
    ref = _direct_convolution(us, vs, sg.xi_axis, _ORACLE_RULES[name])
    assert np.abs(ref).max() > 0.0
    assert np.abs(got - ref).max() < 1e-10 * max(np.abs(ref).max(), 1.0)


def _dense_convolution(us, vs, xi_axis, mask):
    """The bitwise reference for kernels.masked_convolution: one masked,
    rolled multiply-add over the whole N^3 lattice per active mode of us.

    Each output element receives the same products in the same order as in
    the support-restricted kernel (the unselected ones add exact zeros), so
    the two agree bit for bit.
    """
    us = np.ascontiguousarray(us, dtype=np.complex128)
    vs = np.ascontiguousarray(vs, dtype=np.complex128)
    xi = np.ascontiguousarray(xi_axis, dtype=np.float64)

    def moduli(ax, ay, az):
        return np.sqrt((ax**2)[:, None, None] + (ay**2)[None, :, None]
                       + (az**2)[None, None, :])

    half = us.shape[1] // 2
    unz = np.abs(us).max(axis=0) > 0.0
    vnz = np.abs(vs).max(axis=0) > 0.0
    n2 = moduli(xi, xi, xi)
    out = np.zeros_like(us)
    for a1, b1, g1 in np.argwhere(unz):
        x1, y1, z1 = xi[a1], xi[b1], xi[g1]
        n1 = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
        sel = vnz & mask.select(n1, n2, moduli(x1 + xi, y1 + xi, z1 + xi))
        if not sel.any():
            continue
        term = np.where(sel[None], vs, 0.0) * us[:, a1, b1, g1][:, None, None, None]
        out += np.roll(term, (a1 - half, b1 - half, g1 - half), axis=(1, 2, 3))
    return out


_ALL_MASKS = list(region_masks().values()) + [shell_mask(k) for k in range(4)]


def _sparse_free_waves(n, m, sp, density_u, density_v, seed):
    """Free half-wave slices (signs sp) of complex data on random supports."""
    g = SpacetimeGrid(SpatialGrid(n, np.pi), m, 1.0)
    rng = np.random.default_rng(seed)
    out = []
    for sign, density in ((sp.first, density_u), (sp.second, density_v)):
        sg = g.spatial
        data = (rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape)) \
            * (rng.random(sg.shape) < density)
        out.append(free_slices(Spectrum(sg, data), g, EvolutionSpec("D", sign)))
    return g, out[0], out[1]


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8]),
    m=st.sampled_from([4, 6]),
    sp=st.sampled_from([SignPair(+1, +1), SignPair(+1, -1)]),
    density_u=st.floats(0.0, 0.4),
    density_v=st.floats(0.0, 0.4),
    seed=st.integers(0, 2**16),
)
def test_convolution_matches_dense_reference(n, m, sp, density_u, density_v, seed):
    """On sparse supports, under every region mask and shell mask, the
    support-restricted kernel equals the dense loop bit for bit."""
    g, us, vs = _sparse_free_waves(n, m, sp, density_u, density_v, seed)
    xi = g.spatial.xi_axis
    for mask in _ALL_MASKS:
        got = kernels.masked_convolution(us, vs, xi, mask)
        assert got.shape == us.shape and got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got, _dense_convolution(us, vs, xi, mask)), mask.name


def test_convolution_edge_cases():
    """Empty supports, a mask that selects nothing, and periodic wrap-around."""
    sg = SpatialGrid(8, np.pi)  # xi_axis = -4 .. 3
    xi = sg.xi_axis
    us, vs = _random_slices(sg)
    zero = np.zeros_like(us)
    one = region_masks()["one"]
    for a, b in ((zero, vs), (us, zero), (zero, zero)):
        got = kernels.masked_convolution(a, b, xi, one)
        assert np.array_equal(got, zero) and np.array_equal(got, _dense_convolution(a, b, xi, one))
    # shell 6 is 32 < |xi1| <= 64, beyond every lattice frequency here
    got = kernels.masked_convolution(us, vs, xi, shell_mask(6))
    assert np.array_equal(got, zero)
    # (3, 3, 3) + (3, -4, 0) = (6, -1, 3) wraps to (-2, -1, 3): index (2, 3, 7);
    # (-4, -4, -4) + (-3, 0, 3) = (-7, -4, -1) wraps to (1, -4, -1): index (5, 0, 3)
    u, v = np.zeros_like(us), np.zeros_like(vs)
    u[:, 7, 7, 7], v[:, 7, 0, 4] = us[:, 7, 7, 7], vs[:, 7, 0, 4]
    u[:, 0, 0, 0], v[:, 1, 4, 7] = us[:, 0, 0, 0], vs[:, 1, 4, 7]
    got = kernels.masked_convolution(u, v, xi, one)
    assert np.array_equal(got, _dense_convolution(u, v, xi, one))
    assert np.array_equal(got[:, 2, 3, 7], v[:, 7, 0, 4] * u[:, 7, 7, 7])
    assert np.array_equal(got[:, 5, 0, 3], v[:, 1, 4, 7] * u[:, 0, 0, 0])


@settings(max_examples=15, deadline=None)
@given(
    n=st.sampled_from([4, 6]),
    c1=st.floats(1.0, 4.0, exclude_min=True),
    seed=st.integers(0, 2**16),
)
def test_mask_partitions(n, c1, seed):
    """geq + ll and near + far each recombine to the full convolution."""
    sg = SpatialGrid(n, np.pi)
    us, vs = _random_slices(sg, seed=seed)
    masks = region_masks(c1=c1)

    def conv(name):
        return kernels.masked_convolution(us, vs, sg.xi_axis, masks[name])

    full = conv("one")
    assert np.abs(conv("geq") + conv("ll") - full).max() < 1e-10
    assert np.abs(conv("P") + conv("Q") - full).max() < 1e-10


def test_band_mass_callable_weight():
    """Arbitrary weights are accepted; constant 1 matches powers 0 exactly."""
    kw = dict(tau=6.0, h=0.4, z_lo=-5.0, width=10.0, n=48)
    a = kernels.band_mass(4.0, 1, 1, weight=PowerWeight(), **kw)
    b = kernels.band_mass(4.0, 1, 1, weight=lambda r1, r2: np.ones_like(r1), **kw)
    assert a == b


@pytest.mark.parametrize("e1,e2", [(0.0, 0.0), (0.5, -0.3), (-0.5, 1.0)])
def test_band_mass_mask_partitions(e1, e2):
    """Surface counterpart of test_mask_partitions: at a fixed n, geq + ll on
    the ellipsoid and P + Q on the hyperboloid each recombine to the unmasked
    band sum, and every part is non-empty."""
    masks = region_masks()
    weight = PowerWeight(e1, e2)
    ell = dict(xi_norm=2.0, s1=1, s2=1, tau=5.0, h=0.3, z_lo=-3.1, width=6.2, n=96)
    hyp = dict(xi_norm=2.0, s1=1, s2=-1, tau=0.8, h=0.2, z_lo=-6.0, width=12.0, n=96)
    for kw, parts in ((ell, ("geq", "ll")), (hyp, ("P", "Q"))):
        full = kernels.band_mass(weight=weight, **kw)
        split = [kernels.band_mass(weight=weight, mask=masks[p], **kw) for p in parts]
        assert min(split) > 0.0
        assert sum(split) == pytest.approx(full, rel=1e-12, abs=0.0)


def _unit_band_error(n, xi_norm, tau, h):
    """Relative error of the unit-weight band sum against its closed form.

    The unit-weight ellipsoid mass is (pi/2) tau^2 - (pi/6) |xi|^2; averaged
    over the band [tau - h, tau + h] it is (pi/2)(tau^2 + h^2/3) - (pi/6)|xi|^2.
    """
    want = 0.5 * np.pi * (tau**2 + h**2 / 3.0) - np.pi / 6.0 * xi_norm**2
    radius = 0.5 * tau + 2.0 * h
    got = kernels.band_mass(xi_norm, 1, 1, tau, h, -radius, 2.0 * radius, n, PowerWeight())
    return abs(got / want - 1.0)


def _elliptic_draws(count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        xi_norm = rng.uniform(0.5, 2.0)
        tau = xi_norm * rng.uniform(1.2, 3.0)
        yield xi_norm, tau, rng.uniform(0.04, 0.06) * tau


def test_band_mass_unit_weight_closed_form():
    errs = [_unit_band_error(96, *draw) for draw in _elliptic_draws(30)]
    assert max(errs) <= 5e-4


def test_band_mass_second_order():
    """The worst error over the draws falls at least 3x as the cells halve."""
    draws = list(_elliptic_draws(10, seed=1))
    coarse = max(_unit_band_error(96, *d) for d in draws)
    fine = max(_unit_band_error(192, *d) for d in draws)
    assert fine * 3.0 <= coarse


def test_uniform_sum_cdf_limits():
    x = np.linspace(-2.0, 2.0, 81)
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    # two widths: exactly 0 and 1 outside the support |x| <= 1, symmetric inside
    f = kernels._uniform_sum_cdf(x, 1.5 * one, 0.5 * one)
    assert np.all(f[x <= -1.0] == 0.0) and np.all(f[x >= 1.0] == 1.0)
    assert np.allclose(f + f[::-1], 1.0, atol=1e-15)
    assert np.all(np.diff(f) >= 0.0)
    # one width vanishes: the single-uniform CDF; both vanish: the unit step
    single = kernels._uniform_sum_cdf(x, one, zero)
    assert np.allclose(single, np.clip(x + 0.5, 0.0, 1.0), atol=1e-15)
    assert np.array_equal(kernels._uniform_sum_cdf(x, zero, zero), (x >= 0.0) * 1.0)
    # a vanishing width is the limit of a small one
    tiny = kernels._uniform_sum_cdf(x, one, 1e-9 * one)
    assert np.allclose(tiny, single, atol=1e-8)


def test_surface_mass_rotation_invariant():
    """Only |xi| enters the sum."""
    rng = np.random.default_rng(3)
    xi = np.array([1.3, 0.0, 0.0])
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    kw = dict(tau=2.9, sp=SignPair(+1, +1), F=PowerWeight(e1=0.5, e2=-0.3), h=0.15)
    base = surface_mass(xi, **kw)
    turned = surface_mass(rot @ xi, **kw)
    assert base.converged and turned.converged
    assert turned.value == pytest.approx(base.value, rel=1e-14, abs=0.0)
    hyp = dict(tau=0.4, sp=SignPair(+1, -1), F=PowerWeight(e1=-1.8, e2=-1.8), h=0.2,
               box_radius=3.0)
    base = surface_mass(xi, **hyp)
    turned = surface_mass(rot @ xi, **hyp)
    assert turned.value == pytest.approx(base.value, rel=1e-14, abs=0.0)


def test_surface_mass_mask_must_be_maskspec():
    """A mask that is not a MaskSpec is rejected, as bilinear_symbol_product rejects one."""
    xi = np.array([2.0, 0.0, 0.0])
    with pytest.raises(ParameterError):
        surface_mass(xi, 3.0, SignPair(+1, +1), PowerWeight(), h=0.2,
                     mask=lambda r1, r2, r12: r1 < r2)
