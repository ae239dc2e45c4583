"""Half-wave and Bessel evolutions: unitarity, group law, Duhamel oracle."""

import numpy as np
import pytest

from halfwave.errors import GridMismatchError, ParameterError
from halfwave.grid import SpacetimeGrid, SpatialGrid, Spectrum, spatial_forward_slices
from halfwave.propagator import (
    EvolutionSpec,
    _free_slices_at,
    duhamel,
    free_slices,
    free_spacetime,
)


@pytest.fixture
def sg():
    return SpatialGrid(8, np.pi)


@pytest.fixture
def stg(sg):
    return SpacetimeGrid(sg, 32, 1.0)


def _random_spectrum(sg, seed=0):
    rng = np.random.default_rng(seed)
    return Spectrum(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))


_TIMES = np.array([0.3, -0.2, 1.1, 0.0])


def _evolve_each(sg, slices, e, t):
    """Slice i of slices, as a spectrum on sg, evolved on by the time t[i]."""
    return np.stack([_free_slices_at(sg, a, e, t[i : i + 1])[0]
                     for i, a in enumerate(slices)])


@pytest.mark.parametrize("kind", ["D", "J"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_group_property(sg, kind, sign):
    """U(0.4) U(t) = U(t + 0.4) at every time of an array, 0.3 + 0.4 = 0.7 among them."""
    F = _random_spectrum(sg)
    e = EvolutionSpec(kind, sign)
    one = _evolve_each(sg, _free_slices_at(sg, F.data, e, _TIMES), e, np.full(_TIMES.size, 0.4))
    two = _free_slices_at(sg, F.data, e, _TIMES + 0.4)
    assert np.abs(one - two).max() < 1e-12


def test_unitarity(sg):
    F = _random_spectrum(sg, 1)
    G = _free_slices_at(sg, F.data, EvolutionSpec("D", +1), np.array([2.0, -1.5, 0.0]))
    assert np.abs(np.abs(G) - np.abs(F.data)[None]).max() < 1e-13


def test_inverse_evolution(sg):
    """U(-t) U(t) = 1 at every time of an array."""
    F = _random_spectrum(sg, 2)
    e = EvolutionSpec("J", +1)
    G = _evolve_each(sg, _free_slices_at(sg, F.data, e, _TIMES), e, -_TIMES)
    assert np.abs(G - F.data[None]).max() < 1e-13


def test_free_spacetime_matches_evolve(sg, stg):
    """The sampled free wave returns the free slices at the times of its samples."""
    F = _random_spectrum(sg, 3)
    u = free_spacetime(F, stg, EvolutionSpec("D", +1))
    slices = spatial_forward_slices(u)
    sample = [0, stg.origin_index, stg.m - 1]
    expect = _free_slices_at(sg, F.data, EvolutionSpec("D", +1), stg.t_axis[sample])
    assert np.abs(slices[sample] - expect).max() < 1e-10


def test_free_spacetime_origin_is_data(sg, stg):
    F = _random_spectrum(sg, 4)
    u = free_spacetime(F, stg, EvolutionSpec("J", -1))
    slices = spatial_forward_slices(u)
    assert np.abs(slices[stg.origin_index] - F.data).max() < 1e-10


def test_duhamel_constant_forcing_oracle(sg, stg):
    """(i d/dt - J) w = g with constant-in-time g has closed-form solution
    w(t) = -(1 - e^{-itJ}) J^{-1} g, vanishing at t = 0."""
    F = _random_spectrum(sg, 5)
    xi = sg.xi_modulus()
    j = np.sqrt(1 + xi**2)
    g_slices = np.broadcast_to(F.data[None], (stg.m,) + sg.shape)
    ws = duhamel(g_slices, +1, stg)
    for i in [0, stg.m // 4, stg.m - 1]:
        t = stg.t_axis[i]
        exact = -(1.0 - np.exp(-1j * t * j)) / j * F.data
        # trapezoidal integrator: second order in dt
        assert np.abs(ws[i] - exact).max() < 5.0 * stg.dt**2 * np.abs(F.data).max()


def test_duhamel_zero_at_origin(sg, stg):
    F = _random_spectrum(sg, 6)
    w = duhamel(np.broadcast_to(F.data[None], (stg.m,) + sg.shape), -1, stg)
    assert np.abs(w[stg.origin_index]).max() < 1e-12


def test_validation(sg, stg):
    F = _random_spectrum(sg, 7)
    with pytest.raises(ParameterError):
        EvolutionSpec("X", +1)
    with pytest.raises(ParameterError):
        EvolutionSpec("D", 2)
    other = SpatialGrid(8, 2 * np.pi)
    with pytest.raises(GridMismatchError):
        free_spacetime(Spectrum(other, F.data), stg, EvolutionSpec("D", +1))
    with pytest.raises(GridMismatchError):
        duhamel(np.zeros((stg.m - 1,) + sg.shape, complex), +1, stg)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("half_length", [2.0 * np.pi, 1.3])
@pytest.mark.parametrize("m", [16, 64, 256])
def test_free_slices_match_lattice_phases(n, half_length, m):
    """The shell-table phases equal the phases evaluated on every lattice
    point, bit for bit.  The direct formula is evaluated on 16 time slices
    spread over the axis, both ends included, with the same array
    operations as one full evaluation."""
    g = SpacetimeGrid(SpatialGrid(n, half_length), m, 1.0)
    sg = g.spatial
    u0 = _random_spectrum(sg, seed=n + m)
    sample = np.linspace(0, m - 1, 16).round().astype(int)
    t = g.t_axis[sample, None, None, None]
    for kind, sym in (("D", sg.modulus), ("J", sg.bracket)):
        for sign in (+1, -1):
            got = free_slices(u0, g, EvolutionSpec(kind, sign))
            sgn = sign if kind == "D" else -sign
            want = np.exp(1j * sgn * t * sym[None]) * u0.data[None]
            assert got.shape == g.shape and got.flags.c_contiguous
            assert np.array_equal(got[sample], want)


def _duhamel_on_lattice(gs, sign, g):
    """duhamel with its step e^{-sign i dt <xi>} evaluated on every lattice point."""
    step = np.exp(-1j * sign * g.dt * g.spatial.bracket)
    step_back = np.conj(step)
    out = np.zeros(g.shape, dtype=np.complex128)
    m0 = g.origin_index
    half = -1j * g.dt / 2.0
    for m in range(m0, g.m - 1):
        out[m + 1] = step * out[m] + half * (step * gs[m] + gs[m + 1])
    for m in range(m0, 0, -1):
        out[m - 1] = step_back * out[m] - half * (step_back * gs[m] + gs[m - 1])
    return out


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("half_length", [2.0 * np.pi, 1.3])
@pytest.mark.parametrize("m", [16, 24])
def test_duhamel_step_matches_lattice_formula(n, half_length, m):
    """The shell-table Duhamel step gives the lattice-formula result bit for bit."""
    g = SpacetimeGrid(SpatialGrid(n, half_length), m, 1.0)
    rng = np.random.default_rng(n + m)
    gs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    for sign in (+1, -1):
        assert np.array_equal(duhamel(gs, sign, g), _duhamel_on_lattice(gs, sign, g))
