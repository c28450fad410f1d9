"""The conformal energy, the negative-power norm and the invariant functional.

For ``2m > n`` the objects are

    E_2m(u, v) = integral of (P_2m u) v over S^n     (a diagonal quadratic form),
    |u^{-1}|^2_{L^q}  with  q = 2n/(2m - n),
    I_2m(u) = |u^{-1}|^2_{L^q} * E_2m(u),

the last being invariant under rescaling u -> c u and under conformal
pullback.  Negative powers require strict positivity, enforced by the
oversampled-grid gate of :mod:`confsphere.spectral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveFunction
from .gjms import apply_operator, packed_multipliers, s1_derivative_form_coefficients
from .spectral import (
    POSITIVITY_THRESHOLD,
    Discretization,
    QuadratureRule,
    SpectralFunction,
    _aligned,
    discretization,
    min_on_grid,
)


@dataclass(frozen=True)
class EnergyReport:
    """Diagnostics of one function under the order-2m functional."""

    n: int
    m: int
    energy: float
    neg_norm: float
    functional: float
    el_residual: float
    min_value: float


def exponent_q(n: int, m: int) -> float:
    if not 2 * m > n:
        raise ValueError("the negative-power norm requires 2m > n")
    return 2.0 * n / (2 * m - n)


def energy(u: SpectralFunction, v: SpectralFunction, m: int) -> float:
    """Bilinear energy: sum of p_2m(alpha) times coefficient products.

    Evaluated as p . (a b), which is symmetric in the arguments down to
    the floating-point rounding.
    """
    a, b = _aligned(u, v)
    return float(packed_multipliers(u.n, m, max(u.degree, v.degree)) @ (a * b))


def energy_quadratic(u: SpectralFunction, m: int) -> float:
    return energy(u, u, m)


def _positivity_gate(c: np.ndarray, disc: Discretization) -> np.ndarray:
    """Values of the coefficients c on the rule nodes, once c passed the gate.

    The gate is the minimum over the 4x-oversampled positivity grid of
    :func:`min_on_grid`.  When ``disc`` is that discretization the node
    values are the grid, save the zonal poles, so the nodes are synthesized
    once and the grid is not looked up.
    """
    vals = disc.values(c)
    if disc.oversample == 4 and disc.degree >= 1:
        low = disc.grid_minimum(c, vals)
    else:
        low = discretization(disc.rule.n, max(disc.degree, 1), oversample=4).grid_minimum(c)
    if low <= POSITIVITY_THRESHOLD:
        raise NonPositiveFunction(f"function is not strictly positive (grid minimum {low:.3e})")
    return vals


def neg_power_integral(u: SpectralFunction, m: int) -> float:
    """integral of u^{-q} over S^n by quadrature (q = 2n/(2m-n)).

    Negative powers are not band-limited: the rule is the 4x-oversampled
    one of the cached discretization.
    """
    disc = discretization(u.n, u.degree, oversample=4)
    q = exponent_q(u.n, m)
    vals = _positivity_gate(u.coeffs, disc)
    return float(disc.rule.weights @ vals ** (-q))


def neg_power_norm(u: SpectralFunction, m: int) -> float:
    """|u^{-1}|^2_{L^q}; computed through the log to survive large powers."""
    q = exponent_q(u.n, m)
    integ = neg_power_integral(u, m)
    return math.exp((2.0 / q) * math.log(integ))


def functional_value(u: SpectralFunction, m: int) -> float:
    """I_2m(u), evaluated on u divided by its minimum on the nodes.

    u passes the positivity gate as given.  I is scale invariant, and at
    minimum one u^{-q} lies in (0, 1], so neither it nor its integral can
    underflow whatever the scale of u.
    """
    vals = _positivity_gate(u.coeffs, discretization(u.n, u.degree, oversample=4))
    v = u.scaled(1.0 / float(vals.min()))
    return neg_power_norm(v, m) * energy_quadratic(v, m)


def el_residual(u: SpectralFunction, m: int) -> float:
    """L^2 norm of P_2m u - kappa u^{-q-1} with kappa = E(u) / integral(u^{-q}).

    kappa is the unique multiplier making the residual orthogonal to u, so
    the residual vanishes exactly at critical points of the functional.
    """
    disc = discretization(u.n, u.degree, oversample=4)
    q = exponent_q(u.n, m)
    vals = _positivity_gate(u.coeffs, disc)
    pu_vals = disc.synthesize(apply_operator(u, m))
    kappa = energy_quadratic(u, m) / float(disc.rule.weights @ vals ** (-q))
    res = pu_vals - kappa * vals ** (-q - 1.0)
    return math.sqrt(float(disc.rule.weights @ res**2))


def functional_report(u: SpectralFunction, m: int) -> EnergyReport:
    e = energy_quadratic(u, m)
    nn = neg_power_norm(u, m)
    return EnergyReport(
        n=u.n,
        m=m,
        energy=e,
        neg_norm=nn,
        functional=nn * e,
        el_residual=el_residual(u, m),
        min_value=min_on_grid(u, oversample=4),
    )


def _value_terms(c: np.ndarray, vals: np.ndarray, p: np.ndarray, q: float, weights: np.ndarray) -> tuple:
    """(c, vals, I, p c, E, u^{-q}, integral u^{-q}) of the coefficients c.

    ``vals`` are the values of c on the nodes of ``weights`` and have
    passed a positivity gate; ``p`` are the packed multipliers.  The tuple
    is what :func:`_step_terms` takes.
    """
    neg = vals ** (-q)
    integ = float(weights @ neg)
    pc = p * c
    e = float(pc @ c)
    return c, vals, math.exp((2.0 / q) * math.log(integ)) * e, pc, e, neg, integ


def _step_terms(terms: tuple, disc: Discretization, q: float) -> np.ndarray:
    """Gradient coefficients from :func:`_value_terms`.

    They come from the node values held in ``terms``: no synthesis and no
    gate.  u^{-q-1} is taken as u^{-q} / u.
    """
    _, vals, _, pc, e, neg, integ = terms
    pointwise = (-2.0 * integ ** (2.0 / q - 1.0) * e) * (neg / vals)
    return disc.project(pointwise) + pc * (2.0 * integ ** (2.0 / q))


def gradient(u: SpectralFunction, m: int) -> SpectralFunction:
    """Spectral projection of the L^2 gradient of the functional.

    grad I = 2 |u^{-1}|^2 P_2m u - 2 (integral u^{-q})^{2/q - 1} E(u) u^{-q-1},
    truncated at the degree of u.  The kernel is the one of the descent:
    gate, :func:`_value_terms`, :func:`_step_terms`.
    """
    disc = discretization(u.n, u.degree, oversample=4)
    q = exponent_q(u.n, m)
    vals = _positivity_gate(u.coeffs, disc)
    terms = _value_terms(u.coeffs, vals, packed_multipliers(u.n, m, disc.degree), q, disc.rule.weights)
    return SpectralFunction(u.n, _step_terms(terms, disc, q), u.axis)


def s1_energy_from_derivatives(
    derivative_values: list, m: int, rule: QuadratureRule
) -> float:
    """E_2m on the circle from pointwise theta-derivative values.

    ``derivative_values[j]`` holds d^j u / dtheta^j on the rule nodes for
    j = 0..m; the quadratic form is sum_j e_j * integral (u^{(j)})^2 with
    the exact coefficients of the multiplier polynomial (for m = 1 this is
    the classical integral of u'^2 - u^2/4).
    """
    if rule.n != 1:
        raise ValueError("derivative-form energy is a circle computation")
    if len(derivative_values) != m + 1:
        raise ValueError(f"need derivatives of order 0..{m}")
    coeffs = s1_derivative_form_coefficients(m)
    total = 0.0
    for j, ej in enumerate(coeffs):
        vj = np.asarray(derivative_values[j], dtype=float)
        total += float(ej) * float(rule.weights @ vj**2)
    return total
