"""Spectral toolkit for conformal covariant operators on round spheres.

The library implements the order-2m conformal covariant operators on S^n
as exact rational spectral multipliers, the invariant energy functional
they generate, its Mobius covariance, sharp constants, second-variation
stability analysis, and the sphere-to-plane energy identities, together
with a CLI that emits reproducible CSV/JSON reports.
"""

__version__ = "0.1.0"

from .errors import (
    AxisMismatch,
    ConfSphereError,
    CriticalOrder,
    InsufficientNodes,
    InvalidConfig,
    NonPositiveFunction,
    NotUnstable,
    PoleSingularity,
    PrecondViolated,
    SingularOperator,
    SupportViolation,
)
from .extremize import DescentTrace, OptimizerConfig, minimize, perturbation_sweep
from .flatcheck import (
    FlatEnergyReport,
    chart_weight_energy,
    conjugation_check,
    flat_energy_identity,
    smooth_bump,
)
from .functional import (
    EnergyReport,
    el_residual,
    energy,
    energy_quadratic,
    functional_report,
    functional_value,
    gradient,
    neg_power_norm,
)
from .geometry import (
    AxisDilation,
    BallPoint,
    MobiusMap,
    Rotation,
    mobius_apply,
    mobius_compose,
    mobius_inverse,
    mobius_jacobian,
    north_pole,
    south_pole,
    sphere_measure,
    stereographic_inverse,
    stereographic_project,
    unit_ball_volume,
)
from .gjms import (
    MultiplierTable,
    apply_operator,
    green_closed_form,
    green_spectral,
    kernel_degrees,
    multiplier,
    q_constant,
)
from .mobius import (
    CenterResult,
    barycenter,
    extremal,
    find_center,
    pullback,
    recenter,
)
from .polyident import (
    RationalPolynomial,
    check_delta_k_product,
    check_identity_2_1,
    laplacian,
)
from .spectral import (
    Discretization,
    QuadratureRule,
    SpectralFunction,
    analyze,
    circle_quadrature,
    constant_function,
    discretization,
    harmonic_basis_function,
    integrate,
    min_on_grid,
    quadrature_for_degree,
    random_band_limited,
    random_positive_function,
    synthesize,
    zonal_quadrature,
)
from .stability import (
    HessianSpectrum,
    hessian_apply,
    hessian_eigenvalue,
    hessian_spectrum,
    instability_witness,
)
