"""Dyadic shells and region masks: partitions must be exact on the lattice."""

from dataclasses import fields

import numpy as np
import pytest

import halfwave
from halfwave import bilinear, dyadic
from halfwave.dyadic import (
    MaskSpec,
    region_masks,
    shell_bounds,
    shell_mask,
    shell_surface_mass,
)
from halfwave.bilinear import SignPair
from halfwave.errors import ParameterError
from halfwave.grid import SpatialGrid, Spectrum


@pytest.fixture
def sg():
    return SpatialGrid(16, 2 * np.pi)


def test_shell_bounds():
    assert shell_bounds(0) == (-1.0, 1.0)
    assert shell_bounds(1) == (1.0, 2.0)
    assert shell_bounds(4) == (8.0, 16.0)
    with pytest.raises(ParameterError):
        shell_bounds(-1)


def _in_shell(sg, k):
    """The lattice points of dyadic shell k: shell_bounds on the modulus."""
    lo, hi = shell_bounds(k)
    return (sg.modulus > lo) & (sg.modulus <= hi)


def test_shell_partition_exact(sg):
    """Summing the shells' restrictions up to the Nyquist shell recovers the input."""
    rng = np.random.default_rng(0)
    F = Spectrum(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))
    kmax = int(np.ceil(np.log2(np.sqrt(3) * sg.nyquist))) + 1
    total = np.zeros(sg.shape, complex)
    for k in range(kmax + 1):
        total += F.data * _in_shell(sg, k)
    assert np.array_equal(total, F.data)


def test_shells_disjoint(sg):
    masks = [_in_shell(sg, k) for k in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.any(masks[i] & masks[j])


def test_zero_mode_in_shell_zero(sg):
    c = sg.n // 2
    assert sg.modulus[c, c, c] == 0.0 and _in_shell(sg, 0)[c, c, c]


def test_shell_on_lattice(sg):
    assert _in_shell(sg, 0).any()
    assert _in_shell(sg, 3).any()  # up to |xi| ~ 8 <= sqrt(3) * nyquist
    assert not _in_shell(sg, 12).any()


def test_region_masks_partition():
    masks = region_masks()
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal((64, 3))
    x2 = rng.standard_normal((64, 3))
    one = masks["one"](x1, x2)
    assert np.array_equal(masks["geq"](x1, x2) | masks["ll"](x1, x2), one)
    assert not np.any(masks["geq"](x1, x2) & masks["ll"](x1, x2))
    assert np.array_equal(masks["P"](x1, x2) | masks["Q"](x1, x2), one)
    assert not np.any(masks["P"](x1, x2) & masks["Q"](x1, x2))


def test_mask_semantics():
    masks = region_masks()
    x1 = np.array([[0.1, 0.0, 0.0]])
    x2 = np.array([[1.0, 0.0, 0.0]])
    assert masks["ll"](x1, x2)[0]
    assert masks["geq"](x2, x1)[0]
    # opposite vectors of equal size: output frequency 0, far region
    y = np.array([[1.0, 0.0, 0.0]])
    assert masks["Q"](y, -y)[0]
    assert masks["P"](y, y)[0]


def test_mask_rule_validated():
    with pytest.raises(ParameterError):
        MaskSpec("nearby")


def test_maskspec_lives_in_bilinear():
    """One MaskSpec under every name it is reached by; the 'much smaller' rule
    reads bilinear.LL_THRESHOLD and no field sets it."""
    assert halfwave.MaskSpec is dyadic.MaskSpec is bilinear.MaskSpec
    assert [f.name for f in fields(MaskSpec)] == ["rule", "c1", "sh_lo", "sh_hi"]
    assert bilinear.LL_THRESHOLD == 0.5


def test_shell_mask_callable():
    m = shell_mask(2)
    x2 = np.array([[40.0, 0.0, 0.0]])
    assert m(np.array([[3.0, 0.0, 0.0]]), x2)[0]       # 2 < 3 <= 4, 3 < 20
    assert not m(np.array([[5.0, 0.0, 0.0]]), x2)[0]   # outside the shell
    assert not m(np.array([[3.0, 0.0, 0.0]]), np.array([[4.0, 0.0, 0.0]]))[0]  # not <<


def test_shell_masks_partition_ll():
    """shell_ll_k for k = 0..K are disjoint and together equal ll on lattice
    pairs, the zero mode xi1 = 0 included."""
    ax = np.arange(-4.0, 4.0)
    x1 = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 1, 3)
    x2 = np.random.default_rng(2).integers(-8, 8, (1, 64, 3)).astype(float)
    x2[0, 0] = 0.0
    assert np.any(np.all(x1 == 0.0, axis=-1))
    kmax = int(np.ceil(np.log2(np.sqrt(3.0) * 4.0)))
    parts = [shell_mask(k)(x1, x2) for k in range(kmax + 1)]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert not np.any(parts[i] & parts[j])
    assert np.array_equal(np.logical_or.reduce(parts), region_masks()["ll"](x1, x2))


def test_shell_surface_mass_growth():
    """Shell masses on the elliptic surface grow like 2^{2k} (slope 2)."""
    xi = np.array([2000.0, 0.0, 0.0])
    vals = []
    ks = [3, 4, 5]
    for k in ks:
        res = shell_surface_mass(xi, 2004.0, SignPair(+1, +1), k, 1.0, n0=48)
        assert not res.empty
        vals.append(res.value)
    slope = np.polyfit(ks, np.log2(vals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.15)


def test_shell_surface_mass_geometrically_empty():
    """Shell far below the focal distance floor carries no mass."""
    xi = np.array([8.0, 0.0, 0.0])
    res = shell_surface_mass(xi, 200.0, SignPair(+1, +1), 2, 0.5)
    assert res.value == 0.0
