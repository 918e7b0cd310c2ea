"""Accuracy limits for covariant phase estimation.

Numerical library computing the optimal accuracy of phase estimates
(minimal Holevo variance and root-average-mean-square error at fixed mean
generator value), cross-validated against exact Bessel/Airy solutions and
asymptotic series, together with entropic bounds, measurement-reduction
lemmas, and biased Cramer-Rao estimator analysis.
"""

from .specfun import (
    AiryZeros,
    airy_ai,
    airy_ai_prime,
    airy_first_zeros,
    bessel_j,
    bessel_j_dorder,
    bessel_product_sums,
    bessel_zero_in_order,
    bessel_zero_in_order_deriv,
)
from .eigensolve import (
    BandedSymmetric,
    EigenPair,
    ToeplitzPlusDiagonal,
    extremal_eigenpair,
)
from .canonical import (
    ErrorDistribution,
    GeneratorDistribution,
    MaxEntropyFamily,
    bound_reports,
    canonical_distribution,
    entropy_and_length,
    entropy_generator,
    max_entropy_bound_checks,
    state_metrics,
    verify_bounds,
)
from .variational import (
    CostFunction,
    OptimalPoint,
    ProbeState,
    Spectrum,
    build_matrix,
    cost_function,
    solve_point,
    sweep_curve,
)
from .asympt import (
    Constants,
    SeriesExpansion,
    asymptotic_bounds_on_delta,
    bessel_state_nonneg,
    bessel_state_symmetric,
    constants,
    holevo_series,
    nonneg_series_expansion,
    symmetric_series,
    symmetric_series_expansion,
)
from .povm import (
    DegenerateSystem,
    DensityMatrix,
    PovmSet,
    canonical_povm,
    continuity_check,
    covariant_average,
    error_density,
    lemma2_reduction,
)
from .estimators import (
    BiasFunction,
    MziModel,
    ProbeScalingPlan,
    biased_crb,
    mzi_bias,
    mzi_curves,
    probe_scaling_uncertainty,
    reference_curves,
)

__version__ = "0.1.0"

__all__ = [
    "AiryZeros",
    "airy_ai",
    "airy_ai_prime",
    "airy_first_zeros",
    "bessel_j",
    "bessel_j_dorder",
    "bessel_product_sums",
    "bessel_zero_in_order",
    "bessel_zero_in_order_deriv",
    "BandedSymmetric",
    "ToeplitzPlusDiagonal",
    "EigenPair",
    "extremal_eigenpair",
    "ErrorDistribution",
    "GeneratorDistribution",
    "MaxEntropyFamily",
    "bound_reports",
    "canonical_distribution",
    "entropy_and_length",
    "entropy_generator",
    "max_entropy_bound_checks",
    "state_metrics",
    "verify_bounds",
    "CostFunction",
    "OptimalPoint",
    "ProbeState",
    "Spectrum",
    "build_matrix",
    "cost_function",
    "solve_point",
    "sweep_curve",
    "Constants",
    "SeriesExpansion",
    "asymptotic_bounds_on_delta",
    "bessel_state_nonneg",
    "bessel_state_symmetric",
    "constants",
    "holevo_series",
    "nonneg_series_expansion",
    "symmetric_series",
    "symmetric_series_expansion",
    "DegenerateSystem",
    "DensityMatrix",
    "PovmSet",
    "canonical_povm",
    "continuity_check",
    "covariant_average",
    "error_density",
    "lemma2_reduction",
    "BiasFunction",
    "MziModel",
    "ProbeScalingPlan",
    "biased_crb",
    "mzi_bias",
    "mzi_curves",
    "probe_scaling_uncertainty",
    "reference_curves",
    "__version__",
]
