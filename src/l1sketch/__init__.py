"""All-pairs L1 distances between piecewise-polynomial densities.

Distances are estimated from low-dimensional sketches built out of
stochastic integrals against Cauchy motion; an exact piecewise oracle and a
Monte Carlo baseline are included for cross-validation.
"""

__version__ = "0.1.0"

from .ci1 import (
    ci1_density,
    sample_ci1_unit,
    sample_student_envelope,
    student_envelope_density,
)
from .cid import (
    DEFAULT_C_MIDPOINT,
    ApproxConfig,
    calibrate_c,
    random_polynomial,
    rescale_cid,
    riemann_abs_scale,
    sample_cid_approx_unit,
)
from .densities import (
    Breakpoints,
    DensityFamily,
    PiecewisePolyDensity,
    density_from_pieces,
    exact_all_pairs,
    exact_l1_distance,
    merge_breakpoints,
    random_piecewise_linear_family,
    uniform_density,
    validate_family,
)
from .errors import EnvelopeDominationError, FamilyFormatError, ParameterError
from .pipeline import (
    DistanceMatrix,
    SketchMode,
    estimate_all_pairs,
    mc_all_pairs,
    run_scheme,
    sketch_family,
)
from .randstream import (
    RandomStream,
    geometric_mean_estimate,
    required_sample_count,
    sample_cauchy,
)

__all__ = [
    "__version__",
    "ApproxConfig",
    "Breakpoints",
    "DEFAULT_C_MIDPOINT",
    "DensityFamily",
    "DistanceMatrix",
    "EnvelopeDominationError",
    "FamilyFormatError",
    "ParameterError",
    "PiecewisePolyDensity",
    "RandomStream",
    "SketchMode",
    "calibrate_c",
    "ci1_density",
    "density_from_pieces",
    "estimate_all_pairs",
    "exact_all_pairs",
    "exact_l1_distance",
    "geometric_mean_estimate",
    "mc_all_pairs",
    "merge_breakpoints",
    "random_piecewise_linear_family",
    "random_polynomial",
    "required_sample_count",
    "rescale_cid",
    "riemann_abs_scale",
    "run_scheme",
    "sample_cauchy",
    "sample_ci1_unit",
    "sample_cid_approx_unit",
    "sample_student_envelope",
    "sketch_family",
    "student_envelope_density",
    "uniform_density",
    "validate_family",
]
