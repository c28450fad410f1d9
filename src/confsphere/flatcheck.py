"""Sphere-to-plane energy identities on the circle.

Under the chart at the pole N (angle zero), the circle opens onto the
real line via ``x = cot(theta/2)``; the order-2m energy of u with enough
vanishing at N equals the flat integral of the squared m-th derivative of
``((1+x^2)/2)^{(2m-1)/2} u``.  The same chart conjugates the sphere
operator to a weighted power of the flat Laplacian.

All flat-side computation is pulled back to theta: derivatives in x are
expanded exactly over a small algebra of terms ``coeff * h^p sin^a cos^b``
with ``h = 1 - cos(theta)`` (note ``(1+x^2)/2 = 1/h`` and ``d/dx = -h
d/dtheta``), applied to exact spectral derivatives of u.  Nothing singular
is ever re-projected onto the spectral basis, so pole contamination stays
local to nodes that the comparisons exclude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import PrecondViolated, SupportViolation
from .functional import energy_quadratic, s1_energy_from_derivatives
from .gjms import apply_operator
from .spectral import TWO_PI, QuadratureRule, SpectralFunction, circle_quadrature, synthesize

# a weight is {(p, a, b): coeff} standing for sum coeff * h^p sin^a cos^b
Weight = Dict[Tuple[Fraction, int, int], Fraction]
# an expression is {j: weight} standing for sum_j W_j(theta) * u^{(j)}(theta)
Expression = Dict[int, Weight]


def _weight_add(target: Weight, key, coeff: Fraction) -> None:
    if coeff == 0:
        return
    new = target.get(key, Fraction(0)) + coeff
    if new == 0:
        target.pop(key, None)
    else:
        target[key] = new


def _weight_derivative(weight: Weight) -> Weight:
    # d/dtheta of h^p sin^a cos^b with h' = sin
    out: Weight = {}
    for (p, a, b), c in weight.items():
        _weight_add(out, (p - 1, a + 1, b), c * p)
        if a:
            _weight_add(out, (p, a - 1, b + 1), c * a)
        if b:
            _weight_add(out, (p, a + 1, b - 1), -c * b)
    return out


def _weight_shift_power(weight: Weight, dp: Fraction, factor: Fraction) -> Weight:
    return {(p + dp, a, b): c * factor for (p, a, b), c in weight.items()}


def _expression_dx(expr: Expression) -> Expression:
    """Apply d/dx = -h d/dtheta to sum_j W_j u^{(j)}."""
    out: Expression = {}
    for j, weight in expr.items():
        for key, c in _weight_shift_power(_weight_derivative(weight), Fraction(1), Fraction(-1)).items():
            _weight_add(out.setdefault(j, {}), key, c)
        for key, c in _weight_shift_power(weight, Fraction(1), Fraction(-1)).items():
            _weight_add(out.setdefault(j + 1, {}), key, c)
    return {j: w for j, w in out.items() if w}


def _expression_values(expr: Expression, u: SpectralFunction, theta: np.ndarray) -> np.ndarray:
    h = 1.0 - np.cos(theta)
    s, c = np.sin(theta), np.cos(theta)
    out = np.zeros_like(theta)
    for j, weight in expr.items():
        uj = synthesize(u, theta, deriv=j)
        acc = np.zeros_like(theta)
        for (p, a, b), coeff in weight.items():
            term = float(coeff) * h ** float(p)
            if a:
                term = term * s**a
            if b:
                term = term * c**b
            acc += term
        out += acc * uj
    return out


@dataclass(frozen=True)
class FlatEnergyReport:
    sphere_energy: float
    flat_energy: float
    rel_error: float


def _default_circle_rule(u: SpectralFunction, rule: Optional[QuadratureRule]) -> QuadratureRule:
    if rule is not None:
        return rule
    return circle_quadrature(8 * (u.degree + 1))


def flat_energy_identity(
    u: SpectralFunction, m: int, rule: Optional[QuadratureRule] = None
) -> FlatEnergyReport:
    """Compare the spectral order-2m energy with its flat-side integral.

    Requires u(N) = 0 (and u'(N) = 0 for m = 2) within 1e-10, the
    vanishing hypotheses of the identity; :class:`PrecondViolated`
    otherwise.  Only m = 1 and m = 2 carry content here.
    """
    if u.n != 1:
        raise ValueError("the flat identity check runs on the circle")
    if m not in (1, 2):
        raise ValueError("flat identities are implemented for m in {1, 2}")
    at_pole = float(synthesize(u, np.array([0.0]))[0])
    if abs(at_pole) > 1e-10:
        raise PrecondViolated(f"u(N) = {at_pole:.3e} does not vanish")
    if m == 2:
        slope = float(synthesize(u, np.array([0.0]), deriv=1)[0])
        if abs(slope) > 1e-10:
            raise PrecondViolated(f"u'(N) = {slope:.3e} does not vanish")
    rule = _default_circle_rule(u, rule)

    expr: Expression = {0: {(Fraction(-(2 * m - 1), 2), 0, 0): Fraction(1)}}
    for _ in range(m):
        expr = _expression_dx(expr)
    deriv_vals = _expression_values(expr, u, rule.nodes)
    h = 1.0 - np.cos(rule.nodes)
    flat = float(rule.weights @ (deriv_vals**2 / h))

    sphere = energy_quadratic(u, m)
    rel = abs(sphere - flat) / max(abs(sphere), 1e-14)
    return FlatEnergyReport(sphere_energy=sphere, flat_energy=flat, rel_error=rel)


def conjugation_check(
    u: SpectralFunction,
    m: int,
    rule: Optional[QuadratureRule] = None,
    clearance: float = 0.5,
) -> float:
    """Relative L^2 gap between the multiplier action and its flat conjugate.

    The flat side evaluates the weighted 2m-fold x-derivative of the
    chart-weighted function through the exact term algebra; the two sides
    are compared away from the pole (angle > ``clearance``), where the
    support hypothesis keeps both regular.
    """
    if u.n != 1:
        raise ValueError("the conjugation check runs on the circle")
    rule = _default_circle_rule(u, rule)
    theta = rule.nodes
    vals = synthesize(u, theta)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        return 0.0
    near_pole = np.minimum(theta, TWO_PI - theta) < clearance
    if float(np.max(np.abs(vals[near_pole]))) > 1e-6 * peak:
        raise SupportViolation(
            f"function is not supported {clearance} rad away from the pole"
        )

    lhs = synthesize(apply_operator(u, m), theta)

    expr: Expression = {0: {(Fraction(1 - 2 * m, 2), 0, 0): Fraction(1)}}
    for _ in range(2 * m):
        expr = _expression_dx(expr)
    sign = Fraction((-1) ** m)
    expr = {
        j: _weight_shift_power(w, Fraction(-(1 + 2 * m), 2), sign) for j, w in expr.items()
    }
    rhs = _expression_values(expr, u, theta)

    region = ~near_pole
    num = math.sqrt(float(rule.weights[region] @ (lhs[region] - rhs[region]) ** 2))
    den = math.sqrt(float(rule.weights[region] @ lhs[region] ** 2))
    return num / max(den, 1e-14)


def smooth_bump(theta: np.ndarray, clearance: float = 0.55) -> np.ndarray:
    """C^infinity bump vanishing within ``clearance`` radians of the pole."""
    theta = np.asarray(theta, dtype=float)
    r = (theta - math.pi) / (math.pi - clearance)
    out = np.zeros_like(theta)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def chart_weight_energy(num_nodes: int = 1024) -> float:
    """Order-2 energy of (1 + |pi_N|^2)^{-1/2} = sin(theta/2), by quadrature.

    The function has a corner at the pole, so its energy is computed from
    the first-order derivative form; the value is zero up to quadrature
    rounding, the equality case of the nonnegativity statement for
    functions vanishing at a point.
    """
    rule = circle_quadrature(num_nodes)
    vals = np.sin(rule.nodes / 2.0)
    dvals = 0.5 * np.cos(rule.nodes / 2.0)
    return s1_energy_from_derivatives([vals, dvals], 1, rule)
