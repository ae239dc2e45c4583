"""Hot numeric kernels: masked lattice convolution and level-set band sums.

Both are vectorized numpy.  The convolution visits only the spectral
supports of its factors: for each active mode of the first factor it
evaluates the mask on the support of the second and scatter-adds the
selected products, so its cost is O(|supp u| * |supp v| * M), not
O(|supp u| * N^3 * M).  The band sum uses the rotational symmetry of the
level set about the focal axis: it visits square cells of the (z, rho)
half-plane, each weighted by the volume of its annulus and by the exact
fraction of the cell inside the band.  Mask rules live in
bilinear.MaskSpec.select, which both kernels call; this module only supplies
the moduli and takes the mask duck-typed, so it imports no package module.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "masked_convolution",
    "band_mass",
]


def _moduli(x, y, z) -> np.ndarray:
    """sqrt((x^2 + y^2) + z^2) elementwise, summed in that order."""
    return np.sqrt((x**2 + y**2) + z**2)


def masked_convolution(us: np.ndarray, vs: np.ndarray, xi_axis: np.ndarray, mask) -> np.ndarray:
    """out(xi) = sum over lattice pairs xi1 + xi2 = xi (periodic) of
    mask(xi1, xi2) * us(xi1) * vs(xi2), per time slice.

    Arrays are (M, N, N, N) in ascending-frequency order and mask is a
    bilinear.MaskSpec; the caller supplies any continuum-normalization
    prefactor.  The support of a factor is the set of modes that are
    nonzero in some time slice.  The modes xi1 of supp us are visited in
    index order; for each, the mask is evaluated on the pairs (xi1, xi2),
    xi2 in supp vs, and the selected products are added at the periodic
    targets xi1 + xi2.  Cost O(|supp us| * |supp vs| * M).
    """
    us = np.ascontiguousarray(us, dtype=np.complex128)
    vs = np.ascontiguousarray(vs, dtype=np.complex128)
    xi = np.ascontiguousarray(xi_axis, dtype=np.float64)
    m, n = us.shape[0], us.shape[1]
    half = n // 2
    unz = np.abs(us).max(axis=0) > 0.0
    a2, b2, g2 = np.nonzero(np.abs(vs).max(axis=0) > 0.0)
    rows = np.ascontiguousarray(vs[:, a2, b2, g2].T)  # (|supp vs|, M)
    x2, y2, z2 = xi[a2], xi[b2], xi[g2]
    n2 = _moduli(x2, y2, z2)
    acc = np.zeros((n**3, m), dtype=np.complex128)
    for a1, b1, g1 in np.argwhere(unz):
        x1, y1, z1 = xi[a1], xi[b1], xi[g1]
        n1 = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
        s = np.flatnonzero(mask.select(n1, n2, _moduli(x1 + x2, y1 + y2, z1 + z2)))
        if s.size == 0:
            continue
        # the shift by xi1 is a bijection of the lattice, so the targets are distinct
        target = np.ravel_multi_index(
            (a2[s] + (a1 - half), b2[s] + (b1 - half), g2[s] + (g1 - half)), (n, n, n),
            mode="wrap")
        acc[target] += rows[s] * us[:, a1, b1, g1]
    return np.ascontiguousarray(acc.T).reshape(us.shape)


def _uniform_sum_cdf(x: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """P(U_a + U_b <= x) for independent centred uniforms of widths wa, wb >= 0.

    The density is a trapezoid on |x| <= (wa + wb)/2; outside it the value is
    exactly 0 or 1.  One zero width gives the one-uniform limit, two give the
    unit step.
    """
    big = np.maximum(wa, wb)
    small = np.minimum(wa, wb)
    y = np.abs(x)
    gap = 0.5 * (big + small) - y  # distance inside the far end of the support
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(y <= 0.5 * (big - small), 0.5 - y / big,
                        gap * gap / (2.0 * big * small))
    tail = np.where(gap > 0.0, tail, 0.0)
    return np.where(x < 0.0, tail, 1.0 - tail)


def band_mass(
    xi_norm: float,
    s1: int,
    s2: int,
    tau: float,
    h: float,
    z_lo: float,
    width: float,
    n: int,
    weight,
    mask=None,
) -> float:
    """Thickened-level-set sum (1/2h) * integral over |P(eta)-tau|<h of F d^3eta.

    P(eta) = s1*r1 + s2*r2 with r1, r2 the distances to the foci +-xi/2,
    which sit at z = +-|xi|/2 on the axis z of the (z, rho) half-plane.  The
    cylinder z_lo <= z <= z_lo + width, rho <= width/2 is cut into square
    cells of side width/n (n in z, n//2 in rho).  Each cell carries its
    annulus volume 2 pi rho_c step^2 times the exact fraction of the cell in
    the band under P linearised at the cell centre.  F is the vectorized
    weight(r1, r2) at the centre.  A bilinear.MaskSpec mask keeps the cells
    where mask.select(r1, r2, |xi|) holds: the pair xi/2 -+ eta has moduli
    r1, r2 and sum xi.
    """
    step = width / n
    c = 0.5 * float(xi_norm)
    z = (z_lo + (np.arange(n) + 0.5) * step)[:, None]
    rho = ((np.arange(n // 2) + 0.5) * step)[None, :]
    r1 = np.sqrt((z - c) ** 2 + rho**2)
    r2 = np.sqrt((z + c) ** 2 + rho**2)
    dev = s1 * r1 + s2 * r2 - tau
    # |grad P| <= 2, so the linearised P varies by at most sqrt(2)*step over a
    # cell: cells outside this margin have fraction exactly 0
    sel = np.abs(dev) < h + 1.5 * step
    if mask is not None:
        sel &= mask.select(r1, r2, xi_norm)
    zs, rhos = np.broadcast_to(z, sel.shape)[sel], np.broadcast_to(rho, sel.shape)[sel]
    r1s, r2s, devs = r1[sel], r2[sel], dev[sel]
    wz = np.abs(s1 * (zs - c) / r1s + s2 * (zs + c) / r2s) * step
    wr = np.abs(s1 / r1s + s2 / r2s) * rhos * step
    frac = _uniform_sum_cdf(h - devs, wz, wr) - _uniform_sum_cdf(-h - devs, wz, wr)
    frac = np.clip(frac, 0.0, 1.0)
    return float(np.sum(rhos * frac * weight(r1s, r2s))) * np.pi * step**2 / h
