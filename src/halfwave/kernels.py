"""Hot numeric kernels: masked lattice convolution and level-set band sums.

Both are vectorized numpy.  The convolution accumulates one shifted
multiply-add per active mode of the first factor; the band sum visits the
box in slabs so that peak memory stays O(n^2) per temporary.  Mask rules
live in dyadic.MaskSpec.select; this module only supplies the moduli.
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


def band_mass(
    focus_vec,
    s1: int,
    s2: int,
    tau: float,
    h: float,
    lo,
    width: float,
    n: int,
    e1: float = 0.0,
    e2: float = 0.0,
    sh_lo: float = 0.0,
    sh_hi: float = np.inf,
    require_ll: bool = False,
    func=None,
) -> float:
    """Thickened-level-set sum (1/2h) * sum_{|P(eta)-tau|<h} F * cell volume.

    P(eta) = s1*|xi/2 - eta| + s2*|xi/2 + eta| over a cubic box with corner
    lo and side width, sampled at n cell centers per axis.  F is the power
    law r1^e1 * r2^e2 restricted by the optional shell/smallness conditions,
    or an arbitrary vectorized func(r1, r2).
    """
    hx, hy, hz = (float(c) / 2.0 for c in focus_vec)
    step = width / n
    lo = tuple(float(v) for v in lo)
    ax0 = lo[0] + (np.arange(n) + 0.5) * step
    ax1 = lo[1] + (np.arange(n) + 0.5) * step
    ax2 = lo[2] + (np.arange(n) + 0.5) * step
    total = 0.0
    block = max(1, int(4e6 // (n * n)))
    for start in range(0, n, block):
        ex = ax0[start : start + block][:, None, None]
        ey = ax1[None, :, None]
        ez = ax2[None, None, :]
        r1 = np.sqrt((hx - ex) ** 2 + (hy - ey) ** 2 + (hz - ez) ** 2)
        r2 = np.sqrt((hx + ex) ** 2 + (hy + ey) ** 2 + (hz + ez) ** 2)
        sel = np.abs(s1 * r1 + s2 * r2 - tau) < h
        sel &= (r1 > sh_lo) & (r1 <= sh_hi)
        if require_ll:
            sel &= r1 < 0.5 * r2
        if not sel.any():
            continue
        r1s, r2s = r1[sel], r2[sel]
        if func is not None:
            vals = np.asarray(func(r1s, r2s), dtype=float)
        else:
            vals = np.ones_like(r1s)
            if e1 != 0.0:
                vals = vals * np.where(r1s > 0, r1s, np.nan) ** e1
            if e2 != 0.0:
                vals = vals * np.where(r2s > 0, r2s, np.nan) ** e2
            vals = np.nan_to_num(vals, nan=0.0, posinf=0.0)
        total += float(vals.sum())
    return total * step**3 / (2.0 * h)
