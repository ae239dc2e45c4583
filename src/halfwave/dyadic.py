"""Dyadic shell projections and the frequency-region masks.

Shell 0 is {|xi| <= 1}; shell k >= 1 is {2^(k-1) < |xi| <= 2^k}.  Cutoffs
are sharp indicators so that shell sums and mask partitions recombine
exactly on the lattice.  The 'much smaller' threshold is |xi1| < |xi2|/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinear import PowerWeight, SignPair, SurfaceMassResult, surface_mass
from .errors import ParameterError
from .grid import Spectrum

__all__ = [
    "shell_bounds",
    "lp_projection",
    "shell_on_lattice",
    "MaskSpec",
    "region_masks",
    "shell_surface_mass",
]

LL_THRESHOLD = 0.5


def shell_bounds(k: int) -> tuple[float, float]:
    """(lo, hi] bounds of dyadic shell k."""
    if k < 0:
        raise ParameterError(f"shell index must be nonnegative, got {k}")
    if k == 0:
        return (-1.0, 1.0)  # lo < 0 so that |xi| = 0 is included
    return (float(2 ** (k - 1)), float(2**k))


def _shell_mask(grid, k: int) -> np.ndarray:
    lo, hi = shell_bounds(k)
    return (grid.modulus > lo) & (grid.modulus <= hi)


def shell_on_lattice(grid, k: int) -> bool:
    """Whether shell k contains any lattice frequency."""
    return bool(_shell_mask(grid, k).any())


def lp_projection(F: Spectrum, k: int) -> Spectrum:
    """Sharp restriction of the spectrum to dyadic shell k."""
    return Spectrum(F.grid, F.data * _shell_mask(F.grid, k))


_RULES = ("one", "geq", "ll", "near", "far", "shell_ll")


@dataclass(frozen=True)
class MaskSpec:
    """A named pair-frequency mask.

    The rule depends on the pair (xi1, xi2) only through the three moduli
    |xi1|, |xi2| and |xi1 + xi2|; select() is the one place it is written.
    Calling the mask with stacked (..., 3) arrays (xi1, xi2) evaluates it
    vectorized.  kernels.masked_convolution calls select() directly, and
    select() is also used by kernels.band_mass, so a surface mass is masked
    by the same rule as the lattice convolution.
    """

    name: str
    rule: str
    c1: float = 2.0
    threshold: float = LL_THRESHOLD
    sh_lo: float = 0.0
    sh_hi: float = np.inf

    def __post_init__(self):
        if self.rule not in _RULES:
            raise ParameterError(f"unknown mask rule {self.rule!r}")

    def select(self, n1, n2, n12) -> np.ndarray:
        """The mask as a function of |xi1|, |xi2| and |xi1 + xi2|."""
        if self.rule == "one":
            return np.ones(np.broadcast(n1, n2, n12).shape, dtype=bool)
        if self.rule == "geq":
            return n1 >= self.threshold * n2
        if self.rule == "ll":
            return n1 < self.threshold * n2
        if self.rule == "near":
            return n1 + n2 <= self.c1 * n12
        if self.rule == "far":
            return n1 + n2 > self.c1 * n12
        return (n1 > self.sh_lo) & (n1 <= self.sh_hi) & (n1 < self.threshold * n2)

    def __call__(self, xi1, xi2) -> np.ndarray:
        xi1, xi2 = np.asarray(xi1), np.asarray(xi2)
        return self.select(
            np.linalg.norm(xi1, axis=-1),
            np.linalg.norm(xi2, axis=-1),
            np.linalg.norm(xi1 + xi2, axis=-1),
        )


def region_masks(c1: float = 2.0, threshold: float = LL_THRESHOLD) -> dict[str, MaskSpec]:
    """The mask family used by the bilinear splittings.

    geq/ll split by relative input size; P/Q split the hyperbolic product by
    whether the two focal distances are comparable to the output frequency.
    """
    return {
        "one": MaskSpec("one", "one", c1, threshold),
        "geq": MaskSpec("geq", "geq", c1, threshold),
        "ll": MaskSpec("ll", "ll", c1, threshold),
        "P": MaskSpec("P", "near", c1, threshold),
        "Q": MaskSpec("Q", "far", c1, threshold),
    }


def shell_mask(k: int, threshold: float = LL_THRESHOLD) -> MaskSpec:
    """Mask selecting xi1 in shell k with |xi1| < threshold * |xi2|."""
    lo, hi = shell_bounds(k)
    return MaskSpec(f"shell_ll_{k}", "shell_ll", threshold=threshold, sh_lo=lo, sh_hi=hi)


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
