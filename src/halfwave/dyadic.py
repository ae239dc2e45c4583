"""Dyadic shells and the frequency-region masks.

Shell 0 is {|xi| <= 1}; shell k >= 1 is {2^(k-1) < |xi| <= 2^k}.  Cutoffs
are sharp indicators so that shell sums and mask partitions recombine
exactly on the lattice.  The masks are bilinear.MaskSpec values (MaskSpec
is re-exported here); its 'much smaller' rule is |xi1| < |xi2|/2
(bilinear.LL_THRESHOLD).  This module builds the named masks.
"""

from __future__ import annotations

from .bilinear import MaskSpec, PowerWeight, SignPair, SurfaceMassResult, surface_mass
from .errors import ParameterError

__all__ = [
    "shell_bounds",
    "MaskSpec",
    "region_masks",
    "shell_surface_mass",
]

def shell_bounds(k: int) -> tuple[float, float]:
    """(lo, hi] bounds of dyadic shell k."""
    if k < 0:
        raise ParameterError(f"shell index must be nonnegative, got {k}")
    if k == 0:
        return (-1.0, 1.0)  # lo < 0 so that |xi| = 0 is included
    return (float(2 ** (k - 1)), float(2**k))


def region_masks(c1: float = 2.0) -> dict[str, MaskSpec]:
    """The mask family used by the bilinear splittings.

    geq/ll split by relative input size; P/Q split the hyperbolic product by
    whether the two focal distances are comparable to the output frequency.
    """
    return {
        "one": MaskSpec("one", c1),
        "geq": MaskSpec("geq", c1),
        "ll": MaskSpec("ll", c1),
        "P": MaskSpec("near", c1),
        "Q": MaskSpec("far", c1),
    }


def shell_mask(k: int) -> MaskSpec:
    """Mask selecting xi1 in shell k with |xi1| < |xi2|/2."""
    lo, hi = shell_bounds(k)
    return MaskSpec("shell_ll", sh_lo=lo, sh_hi=hi)


def shell_surface_mass(
    xi_vec,
    tau: float,
    sp: SignPair,
    k: int,
    h: float,
    **kwargs,
) -> SurfaceMassResult:
    """Unit-weight surface mass under shell_mask(k): rho1 in shell k, rho1 < rho2/2."""
    return surface_mass(xi_vec, tau, sp, PowerWeight(), h, mask=shell_mask(k), **kwargs)
