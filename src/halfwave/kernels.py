"""Hot numeric kernels: masked lattice convolution and level-set band sums.

Both are vectorized numpy.  The convolution accumulates one shifted
multiply-add per active mode of the first factor.  The band sum uses the
rotational symmetry of the level set about the focal axis: it visits square
cells of the (z, rho) half-plane, each weighted by the volume of its annulus
and by the exact fraction of the cell inside the band.  Mask rules live in
dyadic.MaskSpec.select, which both kernels call; this module only supplies
the moduli.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "masked_convolution",
    "band_mass",
]


def _moduli(ax, ay, az) -> np.ndarray:
    """sqrt(x^2 + y^2 + z^2) over the outer grid of three 1-D component arrays."""
    return np.sqrt((ax**2)[:, None, None] + (ay**2)[None, :, None] + (az**2)[None, None, :])


def masked_convolution(us: np.ndarray, vs: np.ndarray, xi_axis: np.ndarray, mask) -> np.ndarray:
    """out(xi) = sum over lattice pairs xi1 + xi2 = xi (periodic) of
    mask(xi1, xi2) * us(xi1) * vs(xi2), per time slice.

    Arrays are (M, N, N, N) in ascending-frequency order and mask is a
    dyadic.MaskSpec; the caller supplies any continuum-normalization
    prefactor.
    """
    us = np.ascontiguousarray(us, dtype=np.complex128)
    vs = np.ascontiguousarray(vs, dtype=np.complex128)
    xi = np.ascontiguousarray(xi_axis, dtype=np.float64)
    half = us.shape[1] // 2
    unz = np.abs(us).max(axis=0) > 0.0
    vnz = np.abs(vs).max(axis=0) > 0.0
    n2 = _moduli(xi, xi, xi)
    out = np.zeros_like(us)
    for a1, b1, g1 in np.argwhere(unz):
        x1, y1, z1 = xi[a1], xi[b1], xi[g1]
        n1 = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
        sel = vnz & mask.select(n1, n2, _moduli(x1 + xi, y1 + xi, z1 + xi))
        if not sel.any():
            continue
        term = np.where(sel[None], vs, 0.0) * us[:, a1, b1, g1][:, None, None, None]
        out += np.roll(term, (a1 - half, b1 - half, g1 - half), axis=(1, 2, 3))
    return out


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
    weight(r1, r2) at the centre.  A dyadic.MaskSpec mask keeps the cells
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
