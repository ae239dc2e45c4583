"""Lattice kernels against direct reference sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave import kernels
from halfwave.dyadic import region_masks, shell_mask
from halfwave.grid import SpatialGrid


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


def _direct_convolution(us, vs, ax, mask_fn):
    """O(N^6) reference: out(xi) = sum_{xi1+xi2=xi} mask * u(xi1) v(xi2)."""
    m, n = us.shape[0], us.shape[1]
    half = n // 2
    out = np.zeros_like(us)
    for a1 in range(n):
        for b1 in range(n):
            for g1 in range(n):
                xi1 = np.array([ax[a1], ax[b1], ax[g1]])
                for a2 in range(n):
                    for b2 in range(n):
                        for g2 in range(n):
                            xi2 = np.array([ax[a2], ax[b2], ax[g2]])
                            if not mask_fn(xi1, xi2):
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
    rule = _ORACLE_RULES[name]

    def mask_fn(x1, x2):
        return rule(np.linalg.norm(x1), np.linalg.norm(x2), np.linalg.norm(x1 + x2))

    ref = _direct_convolution(us, vs, sg.xi_axis, mask_fn)
    assert np.abs(ref).max() > 0.0
    assert np.abs(got - ref).max() < 1e-10 * max(np.abs(ref).max(), 1.0)


@settings(max_examples=15, deadline=None)
@given(
    n=st.sampled_from([4, 6]),
    c1=st.floats(1.0, 4.0, exclude_min=True),
    threshold=st.floats(0.1, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**16),
)
def test_mask_partitions(n, c1, threshold, seed):
    """geq + ll and near + far each recombine to the full convolution."""
    sg = SpatialGrid(n, np.pi)
    us, vs = _random_slices(sg, seed=seed)
    masks = region_masks(c1=c1, threshold=threshold)

    def conv(name):
        return kernels.masked_convolution(us, vs, sg.xi_axis, masks[name])

    full = conv("one")
    assert np.abs(conv("geq") + conv("ll") - full).max() < 1e-10
    assert np.abs(conv("P") + conv("Q") - full).max() < 1e-10


def test_band_mass_callable_weight():
    """Arbitrary weights are accepted; constant 1 matches powers 0."""
    xi = np.array([4.0, 0.0, 0.0])
    lo = np.full(3, -5.0)
    kw = dict(tau=6.0, h=0.4, lo=lo, width=10.0, n=48)
    a = kernels.band_mass(xi, 1, 1, e1=0.0, e2=0.0, **kw)
    b = kernels.band_mass(xi, 1, 1, func=lambda r1, r2: np.ones_like(r1), **kw)
    assert a == pytest.approx(b, rel=1e-12)
