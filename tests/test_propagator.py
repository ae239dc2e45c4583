"""Half-wave and Bessel evolutions: unitarity, group law, Duhamel oracle."""

import numpy as np
import pytest

from halfwave.errors import GridMismatchError, ParameterError
from halfwave.grid import (
    SpacetimeField,
    SpacetimeGrid,
    SpatialGrid,
    Spectrum,
    spatial_forward_slices,
)
from halfwave.propagator import EvolutionSpec, duhamel, evolve, free_spacetime


@pytest.fixture
def sg():
    return SpatialGrid(8, np.pi)


@pytest.fixture
def stg(sg):
    return SpacetimeGrid(sg, 32, 1.0)


def _random_spectrum(sg, seed=0):
    rng = np.random.default_rng(seed)
    return Spectrum(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))


@pytest.mark.parametrize("kind", ["D", "J"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_group_property(sg, kind, sign):
    F = _random_spectrum(sg)
    one = evolve(evolve(F, EvolutionSpec(kind, sign, 0.3)), EvolutionSpec(kind, sign, 0.4))
    two = evolve(F, EvolutionSpec(kind, sign, 0.7))
    assert np.abs(one.data - two.data).max() < 1e-12


def test_unitarity(sg):
    F = _random_spectrum(sg, 1)
    G = evolve(F, EvolutionSpec("D", +1, 2.0))
    assert np.abs(np.abs(G.data) - np.abs(F.data)).max() < 1e-13


def test_inverse_evolution(sg):
    F = _random_spectrum(sg, 2)
    G = evolve(evolve(F, EvolutionSpec("J", +1, 0.5)), EvolutionSpec("J", +1, -0.5))
    assert np.abs(G.data - F.data).max() < 1e-13


def test_free_spacetime_matches_evolve(sg, stg):
    F = _random_spectrum(sg, 3)
    u = free_spacetime(F, stg, EvolutionSpec("D", +1))
    slices = spatial_forward_slices(u)
    for i in [0, stg.origin_index, stg.m - 1]:
        expect = evolve(F, EvolutionSpec("D", +1, stg.t_axis[i]))
        assert np.abs(slices[i] - expect.data).max() < 1e-10


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
