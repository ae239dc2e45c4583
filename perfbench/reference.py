"""References the benchmark checks the program against, computed apart from it.

Nothing here imports `halfwave`: the lattice transform is rebuilt from
`numpy.fft`, the surface masses come from the prolate-spheroidal reduction
integrated with `scipy.integrate.quad`, and the manufactured solutions are
written out by hand.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def lattice_inverse(spec: np.ndarray, half_length: float) -> np.ndarray:
    """Configuration samples of a continuum-normalised spectrum on [-L, L)^3.

    The program's forward transform is F(xi_j) = dx^3 sum_n f(x_n) e^{-i x_n xi_j}
    with x_n = -L + n dx and xi_j = j pi / L, j = -N/2 .. N/2-1.  Since
    e^{-i x_n xi_j} = (-1)^j e^{-2 pi i n j / N}, the inverse is an inverse DFT
    of (-1)^j F in standard (unshifted) order, divided by dx^3.
    """
    n = spec.shape[0]
    dx = 2.0 * half_length / n
    j = np.arange(-n // 2, n // 2)
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    alt = sign[:, None, None] * sign[None, :, None] * sign[None, None, :]
    return np.fft.ifftn(np.fft.ifftshift(alt * spec)) / dx**3


def relative_max_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale if scale > 0 else float(np.max(np.abs(got)))


def ellipsoid_mass(xi_norm: float, tau: float, p: float, q: float) -> float:
    """Surface mass of the ellipsoid |xi/2 - eta| + |xi/2 + eta| = tau.

    The weight is r1^(p-1) r2^(q-1) and the measure dS/|grad P|.  In prolate
    spheroidal coordinates about the foci +-xi/2 the volume element is
    (u^2 - v^2)/(8|xi|) du dv dphi with u = r1 + r2 and v = r1 - r2, so the
    mass is pi (|xi|/2)^(p+q) * integral_{-1}^{1} |a+x|^p |a-x|^q dx with
    a = tau/|xi|.
    """
    a = tau / xi_norm
    val, _ = quad(lambda x: abs(a + x) ** p * abs(a - x) ** q, -1.0, 1.0,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return math.pi * (xi_norm / 2.0) ** (p + q) * val


def ellipsoid_band_mass(xi_norm: float, tau: float, h: float, p: float, q: float) -> float:
    """Average of ellipsoid_mass over the band [tau - h, tau + h].

    A thickened level-set sum (1/2h) * sum_{|P - tau| < h} converges, as the
    lattice is refined, to exactly this average (coarea formula), so comparing
    with it leaves only the lattice error of the sum.
    """
    val, _ = quad(lambda t: ellipsoid_mass(xi_norm, t, p, q), tau - h, tau + h,
                  epsabs=0.0, epsrel=1e-10, limit=200)
    return val / (2.0 * h)


def ellipsoid_closed_form(xi_norm: float, tau: float) -> float:
    """ellipsoid_mass at p = q = 1 (unit weight): (pi/2) tau^2 - (pi/6) |xi|^2."""
    return 0.5 * math.pi * tau**2 - math.pi / 6.0 * xi_norm**2


NONLINEARITIES = ((1, "t"), (1, "x1"), (2, "t"), (2, "x1"))


def manufactured(k: int, deriv: str, q: float, om: float, amp: float, x1, t):
    """Exact solution u = amp cos(om t) cos(q x1) of Box u = B_k(u, u) + S.

    Returns (u, u_t, B_k(u, u), S) sampled on the broadcast of the x1 and t
    axes.  Box u = (q^2 - om^2) u, and B_k is written out for each
    nonlinearity, so S = Box u - B_k(u, u) makes u exact.
    """
    c, s = np.cos(om * t), np.sin(om * t)
    cx, sx = np.cos(q * x1), np.sin(q * x1)
    u = amp * c * cx
    ut = -amp * om * s * cx
    if (k, deriv) == (1, "x1"):       # d_x1 (u^2)
        b = -amp**2 * c**2 * q * np.sin(2.0 * q * x1)
    elif (k, deriv) == (1, "t"):      # d_t (u^2)
        b = -amp**2 * om * np.sin(2.0 * om * t) * cx**2
    elif (k, deriv) == (2, "x1"):     # (d_x1 u)^2
        b = amp**2 * c**2 * q**2 * sx**2
    elif (k, deriv) == (2, "t"):      # (d_t u)^2
        b = amp**2 * om**2 * s**2 * cx**2
    else:
        raise ValueError(f"no manufactured solution for k={k}, d={deriv}")
    return u, ut, b, (q * q - om * om) * u - b


def _d1(f, shift: str, step: float):
    """Fourth-order central first difference of f(**{shift: offset})."""
    return (-f(**{shift: 2 * step}) + 8 * f(**{shift: step})
            - 8 * f(**{shift: -step}) + f(**{shift: -2 * step})) / (12 * step)


def _d2(f, shift: str, step: float):
    """Fourth-order central second difference of f(**{shift: offset})."""
    return (-f(**{shift: 2 * step}) + 16 * f(**{shift: step}) - 30 * f()
            + 16 * f(**{shift: -step}) - f(**{shift: -2 * step})) / (12 * step**2)


def manufactured_defect(k: int, deriv: str, q: float, om: float, amp: float) -> float:
    """Largest defect of the manufactured solution in its own equation.

    u_tt - u_x1x1, B_k(u, u) and u_t are taken by finite differences of u
    alone on a fine (x1, t) mesh and compared with the closed forms, so the
    defect is the finite-difference error, about 1e-9 relative.
    """
    step = 1e-3
    x1 = np.linspace(-2.0, 2.0, 41)[None, :]
    t = np.linspace(-0.5, 0.5, 21)[:, None]

    def u(dx1=0.0, dt=0.0):
        return manufactured(k, deriv, q, om, amp, x1 + dx1, t + dt)[0]

    def u_sq(**kw):
        return u(**kw) ** 2

    shift = "dt" if deriv == "t" else "dx1"
    b_fd = _d1(u_sq, shift, step) if k == 1 else _d1(u, shift, step) ** 2
    box = _d2(u, "dt", step) - _d2(u, "dx1", step)
    _, ut, b, src = manufactured(k, deriv, q, om, amp, x1, t)
    return float(max(np.max(np.abs(box - b_fd - src)), np.max(np.abs(b_fd - b)),
                     np.max(np.abs(_d1(u, "dt", step) - ut))))
