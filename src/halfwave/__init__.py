"""Numerical laboratory for bilinear estimates on half-wave evolutions.

Lattice Fourier analysis with continuum normalization, weighted space-time
norms, surface-measure reductions of wave-wave interactions, dyadic
decompositions, an estimate-verification harness, and a pseudospectral
local solver for quadratic wave equations.
"""

from .bilinear import (
    PowerWeight,
    ReductionResult,
    ReductionSpec,
    SignPair,
    SurfaceMassResult,
    bilinear_symbol_product,
    product_transform_direct,
    reduction_integral,
    surface_mass,
)
from .dyadic import (
    MaskSpec,
    lp_projection,
    region_masks,
    shell_bounds,
    shell_on_lattice,
    shell_surface_mass,
)
from .errors import (
    BudgetError,
    DivergentIntegralError,
    FieldLoadError,
    GridMismatchError,
    HalfwaveError,
    ParameterError,
    RepresentationError,
)
from .fieldio import read_field, write_field
from .grid import (
    Field,
    SpacetimeField,
    SpacetimeGrid,
    SpacetimeSpectrum,
    SpatialGrid,
    Spectrum,
    forward_transform,
    inverse_transform,
)
from .propagator import EvolutionSpec, duhamel, evolve, free_spacetime
from .solver import (
    CauchyData,
    NonlinearitySpec,
    SolveConfig,
    default_config,
    flow_lipschitz_probe,
    from_first_order,
    picard_iterate,
    rhs_eval,
    select_delta,
    solve_local,
    to_first_order,
)
from .spaces import (
    NormParams,
    WindowSpec,
    apply_window,
    dual_exponent,
    lr_xt_norm,
    restricted_norm,
    sobolev_hat_norm,
    window_values,
    xsb_norm,
    z_norm,
)
from .verify import (
    DataFamily,
    EstimateReport,
    check_elliptic_lemma,
    check_hyperbolic_lemmas,
    check_key_estimate,
    check_lowfreq_young,
    check_strichartz_l2,
    extremizer_search,
    family_spectrum,
    scaling_grid,
    sharpness_probe,
    surface_cross_check,
)

__version__ = "0.1.0"
