"""Lattice transforms and symbols: exactness, normalization oracles, cached symbols."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave.errors import GridMismatchError, ParameterError, RepresentationError
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
    inverse_transform,
    reflect,
    spatial_forward_slices,
    spatial_inverse_slices,
    time_forward,
)
from halfwave.grid import _checkerboard, _signs, _spatial_dft


@pytest.fixture
def sg():
    return SpatialGrid(16, np.pi)


@pytest.fixture
def stg(sg):
    return SpacetimeGrid(sg, 8, 1.0)


def test_grid_geometry(sg):
    assert sg.dx * sg.dxi == pytest.approx(2 * np.pi / sg.n)
    assert sg.nyquist == pytest.approx(sg.n / 2 * sg.dxi)
    assert sg.x_axis[0] == -np.pi
    assert sg.xi_axis[sg.n // 2] == 0.0
    assert sg.shape == (16, 16, 16)


def test_grid_validation():
    with pytest.raises(ParameterError):
        SpatialGrid(15, np.pi)  # odd
    with pytest.raises(ParameterError):
        SpatialGrid(16, -1.0)


def test_roundtrip(sg):
    rng = np.random.default_rng(0)
    f = Field(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))
    back = inverse_transform(forward_transform(f))
    assert np.abs(back.data - f.data).max() < 1e-13


def test_spacetime_roundtrip(stg):
    rng = np.random.default_rng(1)
    shape = (stg.m,) + stg.spatial.shape
    u = SpacetimeField(stg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    back = inverse_transform(forward_transform(u))
    assert np.abs(back.data - u.data).max() < 1e-12


def test_single_mode_peak(sg):
    """One lattice exponential transforms to (2L)^3 on its own frequency."""
    xi0 = np.array([sg.dxi, 2 * sg.dxi, 0.0])
    x1, x2, x3 = np.meshgrid(sg.x_axis, sg.x_axis, sg.x_axis, indexing="ij")
    f = Field(sg, np.exp(1j * (xi0[0] * x1 + xi0[1] * x2 + xi0[2] * x3)))
    F = forward_transform(f)
    i = np.unravel_index(np.argmax(np.abs(F.data)), sg.shape)
    assert sg.xi_axis[i[0]] == pytest.approx(xi0[0])
    assert sg.xi_axis[i[1]] == pytest.approx(xi0[1])
    assert F.data[i] == pytest.approx((2 * sg.half_length) ** 3)
    off = F.data.copy()
    off[i] = 0.0
    assert np.abs(off).max() < 1e-9


def test_gaussian_transform_oracle():
    """exp(-|x|^2/2) transforms to (2 pi)^{3/2} exp(-|xi|^2/2) on resolved modes."""
    sg = SpatialGrid(32, 4 * np.pi)
    x1, x2, x3 = np.meshgrid(sg.x_axis, sg.x_axis, sg.x_axis, indexing="ij")
    f = Field(sg, np.exp(-(x1**2 + x2**2 + x3**2) / 2.0))
    F = forward_transform(f)
    xi = sg.xi_modulus()
    exact = (2 * np.pi) ** 1.5 * np.exp(-(xi**2) / 2.0)
    sel = xi <= sg.nyquist / 2
    rel = np.abs(F.data[sel] - exact[sel]) / exact[sel].max()
    assert rel.max() < 1e-7  # limited by lattice-sum vs integral error


def test_parseval(sg):
    rng = np.random.default_rng(2)
    f = Field(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))
    F = forward_transform(f)
    lhs = np.sum(np.abs(f.data) ** 2) * sg.dx**3
    rhs = np.sum(np.abs(F.data) ** 2) * sg.dxi**3 / (2 * np.pi) ** 3
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_representation_guards(sg):
    f = Field(sg, np.zeros(sg.shape, complex))
    F = Spectrum(sg, np.zeros(sg.shape, complex))
    with pytest.raises(RepresentationError):
        forward_transform(F)
    with pytest.raises(RepresentationError):
        inverse_transform(f)


def test_shape_and_grid_mismatch(sg):
    with pytest.raises(GridMismatchError):
        Field(sg, np.zeros((4, 4, 4), complex))
    other = Field(SpatialGrid(16, 2 * np.pi), np.zeros((16, 16, 16), complex))
    with pytest.raises(GridMismatchError):
        _ = Field(sg, np.zeros(sg.shape, complex)) + other


def test_arithmetic(sg):
    rng = np.random.default_rng(3)
    a = Field(sg, rng.standard_normal(sg.shape) + 0j)
    b = Field(sg, rng.standard_normal(sg.shape) + 0j)
    assert np.array_equal((a + b).data, a.data + b.data)
    assert np.array_equal((a - b).data, a.data - b.data)
    assert np.array_equal((2.5 * a).data, 2.5 * a.data)


def test_symbols_read_only(sg):
    for sym in (sg.modulus, sg.bracket, sg.dealias_mask, sg.xi_modulus()):
        assert not sym.flags.writeable
        with pytest.raises(ValueError):
            sym[0, 0, 0] = 1
    assert sg.xi_modulus() is sg.modulus          # built once per grid
    assert sg == SpatialGrid(16, np.pi)            # the cache is not part of equality


def test_bracket_is_japanese_modulus(sg):
    k1, k2, k3 = sg.xi_mesh()
    assert np.array_equal(sg.modulus, np.sqrt(k1**2 + k2**2 + k3**2))
    assert np.array_equal(sg.bracket, np.sqrt(1.0 + sg.modulus**2))


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("half_length", [2.0 * np.pi, 1.3])
def test_shell_tables(n, half_length):
    """The distinct |xi| and their index rebuild modulus and bracket exactly."""
    grid = SpatialGrid(n, half_length)
    vals, idx = grid.shell_values, grid.shell_index
    assert vals.ndim == 1 and np.all(np.diff(vals) > 0.0)
    assert idx.shape == grid.shape
    assert np.array_equal(vals[idx], grid.modulus)
    assert np.array_equal(grid.shell_brackets[idx], grid.bracket)
    assert np.array_equal(np.unique(idx), np.arange(vals.size))   # every shell occupied
    for table in (vals, idx, grid.shell_brackets):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1
    assert grid.shell_values is vals and grid.shell_index is idx  # built once per grid


def test_derivative_symbol_oracle(sg):
    """Spectral derivative of a single mode is i*xi times it."""
    x1 = np.meshgrid(sg.x_axis, sg.x_axis, sg.x_axis, indexing="ij")[0]
    f = Field(sg, np.exp(1j * 2 * sg.dxi * x1))
    F = forward_transform(f)
    df = inverse_transform(Spectrum(sg, 1j * sg.xi_axis[:, None, None] * F.data))
    exact = 1j * 2 * sg.dxi * f.data
    assert np.abs(df.data - exact).max() < 1e-10


def test_bracket_inverse_roundtrip(sg):
    rng = np.random.default_rng(4)
    F = rng.standard_normal(sg.shape) + 0j
    assert np.abs(F * sg.bracket / sg.bracket - F).max() < 1e-12
    assert np.abs(F / sg.bracket * sg.bracket - F).max() < 1e-12


def test_dealias_mask_two_thirds_rule(sg):
    mask = sg.dealias_mask
    assert mask.dtype == bool
    for axis in range(3):
        # index 0 is the Nyquist plane xi_axis = -N/2 * dxi
        assert not np.take(mask, 0, axis=axis).any()
    keep = np.abs(sg.xi_axis) < (2.0 / 3.0) * sg.nyquist
    assert np.array_equal(mask, keep[:, None, None] & keep[None, :, None] & keep[None, None, :])


# Per-axis reference: fft + fftshift + the (-1)^j boundary phase, one axis at
# a time, with numpy.fft (the centered transform written out directly).
def _ref_phase(data, axis, n):
    j = np.arange(-n // 2, n // 2)
    shape = [1] * data.ndim
    shape[axis] = n
    return np.where(j % 2 == 0, 1.0, -1.0).reshape(shape)


def _ref_forward(data, axes):
    for axis, n, step in axes:
        out = np.fft.fftshift(np.fft.fft(data, axis=axis), axes=axis)
        data = step * _ref_phase(data, axis, n) * out
    return data


def _ref_inverse(data, axes):
    for axis, n, step in axes:
        tmp = np.fft.ifftshift(_ref_phase(data, axis, n) * data, axes=axis)
        data = np.fft.ifft(tmp, axis=axis) / step
    return data


_lattices = dict(
    n=st.integers(2, 8).map(lambda k: 2 * k),
    m=st.integers(2, 16).map(lambda k: 2 * k),
    half_length=st.floats(0.1, 50.0),
    half_time=st.floats(0.1, 50.0),
    seed=st.integers(0, 2**16),
)


def _random_lattice(n, m, half_length, half_time, seed):
    g = SpacetimeGrid(SpatialGrid(n, half_length), m, half_time)
    rng = np.random.default_rng(seed)
    return g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)


def _close(got, want, rel):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@settings(max_examples=25, deadline=None)
@given(**_lattices)
def test_fused_transforms_match_per_axis_reference(n, m, half_length, half_time, seed):
    g, x = _random_lattice(n, m, half_length, half_time, seed)
    sg = g.spatial
    space = [(1, n, sg.dx), (2, n, sg.dx), (3, n, sg.dx)]
    time_ax = [(0, m, g.dt)]
    space3 = [(0, n, sg.dx), (1, n, sg.dx), (2, n, sg.dx)]
    cases = [
        (forward_transform(SpacetimeField(g, x)).data, _ref_forward(x, space + time_ax)),
        (inverse_transform(SpacetimeSpectrum(g, x)).data, _ref_inverse(x, time_ax + space)),
        (spatial_forward_slices(SpacetimeField(g, x)), _ref_forward(x, space)),
        (spatial_inverse_slices(g, x).data, _ref_inverse(x, space)),
        (time_forward(g, x), _ref_forward(x, time_ax)),
        (forward_transform(Field(sg, x[0])).data, _ref_forward(x[0], space3)),
        (inverse_transform(Spectrum(sg, x[0])).data, _ref_inverse(x[0], space3)),
    ]
    for got, want in cases:
        assert _close(got, want, 1e-13)


@settings(max_examples=25, deadline=None)
@given(**_lattices)
def test_fused_roundtrip_and_parseval(n, m, half_length, half_time, seed):
    g, x = _random_lattice(n, m, half_length, half_time, seed)
    sg = g.spatial
    u = SpacetimeField(g, x)
    F = forward_transform(u)
    assert _close(inverse_transform(F).data, x, 1e-13)
    assert _close(spatial_inverse_slices(g, spatial_forward_slices(u)).data, x, 1e-13)
    f = Field(sg, x[0])
    assert _close(inverse_transform(forward_transform(f)).data, x[0], 1e-13)
    lhs = np.sum(np.abs(x) ** 2) * sg.dx**3 * g.dt
    rhs = np.sum(np.abs(F.data) ** 2) * sg.dxi**3 * g.dtau / (2 * np.pi) ** 4
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_transform_leaves_input_and_sign_cache_untouched(stg):
    """The in-place FFT works on a copy; the cached sign arrays stay read-only."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((stg.m,) + stg.spatial.shape) + 0j
    keep = x.copy()
    spec = spatial_forward_slices(SpacetimeField(stg, x))
    spec_keep = spec.copy()
    spatial_inverse_slices(stg, spec)
    forward_transform(SpacetimeField(stg, x))
    time_forward(stg, x)
    assert np.array_equal(x, keep)
    assert np.array_equal(spec, spec_keep)
    assert not _checkerboard(stg.spatial.n).flags.writeable
    assert not _signs(stg.m).flags.writeable


def _reflect_by_index(a, axes):
    """a(-xi) by the index map k -> (-k) mod n, one axis at a time."""
    for axis in axes:
        n = a.shape[axis]
        a = np.take(a, (-np.arange(n)) % n, axis=axis)
    return a


@settings(max_examples=25, deadline=None)
@given(**_lattices)
def test_reflections_match_index_map(n, m, half_length, half_time, seed):
    """The Nyquist index 0 and the zero index n/2 are fixed; the rest pair up."""
    g, x = _random_lattice(n, m, half_length, half_time, seed)
    assert np.array_equal(reflect(x, (0, 1, 2, 3)), _reflect_by_index(x, (0, 1, 2, 3)))
    assert np.array_equal(reflect(x, (0,)), _reflect_by_index(x, (0,)))
    full = np.conj(_reflect_by_index(x, (1, 2, 3)))
    assert np.array_equal(conj_reflect(x), full)
    assert np.array_equal(conj_reflect(x[0]), full[0])
    # u_+ from the half spectra of (u_+, u_- = conj R u_+), u_+ not Hermitian
    h = n // 2 + 1
    assert np.array_equal(hermitian_full(x[..., :h], full[..., :h]), x)


@settings(max_examples=25, deadline=None)
@given(**_lattices)
def test_half_spectrum_transforms_match_full(n, m, half_length, half_time, seed):
    """The arrays pick the transform: a real input gives the half spectrum,
    the first N//2 + 1 planes of the complex transform, and a half spectrum
    inverts to the real array, while complex data and full spectra take the
    complex path.  The completed half spectrum is the full one, Nyquist
    planes included."""
    g, x = _random_lattice(n, m, half_length, half_time, seed)
    f = x.real.copy()
    keep = f.copy()
    h = n // 2 + 1
    full = spatial_forward_slices(SpacetimeField(g, f))
    assert full.shape == g.shape
    half = _spatial_dft(f, (1, 2, 3), g.spatial)
    assert np.array_equal(f, keep)
    assert half.shape == (m, n, n, h)
    assert _close(half, full[..., :h], 1e-13)
    inverse = _spatial_dft(full, (1, 2, 3), g.spatial, inverse=True)
    assert np.iscomplexobj(inverse) and _close(inverse, f, 1e-13)
    completed = hermitian_full(half)
    assert np.array_equal(completed[..., :h], half)
    upper = np.conj(_reflect_by_index(completed, (1, 2, 3)))[..., h:]
    assert np.array_equal(completed[..., h:], upper)
    assert _close(completed, full, 1e-13)
    back = _spatial_dft(half, (1, 2, 3), g.spatial, inverse=True)
    assert back.dtype == np.float64 and back.shape == g.shape
    assert _close(back, f, 1e-13)
    assert _close(back, spatial_inverse_slices(g, completed).data, 1e-13)
