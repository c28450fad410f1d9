"""Spectral toolkit for conformal covariant operators on round spheres.

The library implements the order-2m conformal covariant operators on S^n
as exact rational spectral multipliers, the invariant energy functional
they generate, its Mobius covariance, sharp constants, second-variation
stability analysis, and the sphere-to-plane energy identities, together
with a CLI that emits reproducible CSV/JSON reports.

Importing the package loads only :mod:`confsphere.errors`.  Every other
public name is looked up in its home module on each access (PEP 562), and
the home module is imported on first use.  The lookup is not stored in the
package: a function rebound on its home module, as a tracer or a test's
monkeypatch does, shows through ``confsphere.<name>`` at once.
"""

import importlib as _importlib
import sys as _sys

__version__ = "0.1.0"

from .errors import (
    AxisMismatch,
    ClosedFormMismatch,
    ConfSphereError,
    CriticalOrder,
    InsufficientNodes,
    InvalidConfig,
    NonPositiveFunction,
    PrecondViolated,
    SingularOperator,
    SupportViolation,
)

_EXPORTS = {
    "exact": ("multiplier",),
    "extremize": ("DescentTrace", "OptimizerConfig", "minimize", "perturbation_sweep"),
    "flatcheck": (
        "FlatEnergyReport",
        "chart_weight_energy",
        "conjugation_check",
        "flat_energy_identity",
        "smooth_bump",
    ),
    "functional": (
        "EnergyReport",
        "el_residual",
        "energy",
        "energy_quadratic",
        "functional_report",
        "functional_value",
        "gradient",
        "neg_power_norm",
    ),
    "geometry": (
        "AxisDilation",
        "BallPoint",
        "MobiusMap",
        "Rotation",
        "north_pole",
        "sphere_measure",
        "unit_ball_volume",
    ),
    "gjms": (
        "apply_operator",
        "green_spectral",
        "kernel_degrees",
        "q_constant",
    ),
    "mobius": ("CenterResult", "barycenter", "extremal", "find_center", "pullback", "recenter"),
    "polyident": ("RationalPolynomial", "check_delta_k_product", "check_identity_2_1", "laplacian"),
    "spectral": (
        "Discretization",
        "QuadratureRule",
        "SpectralFunction",
        "analyze",
        "circle_quadrature",
        "constant_function",
        "discretization",
        "harmonic_basis_function",
        "integrate",
        "min_on_grid",
        "quadrature_for_degree",
        "random_band_limited",
        "random_positive_function",
        "synthesize",
        "zonal_quadrature",
    ),
    "stability": (
        "HessianSpectrum",
        "hessian_eigenvalue",
        "hessian_spectrum",
    ),
}

#: public name -> full name of the module that defines it
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "AxisMismatch",
    "ClosedFormMismatch",
    "ConfSphereError",
    "CriticalOrder",
    "InsufficientNodes",
    "InvalidConfig",
    "NonPositiveFunction",
    "PrecondViolated",
    "SingularOperator",
    "SupportViolation",
    *_HOME,
]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _sys.modules.get(home)
    if module is None:
        module = _importlib.import_module(home)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
