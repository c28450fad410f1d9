"""The conformal energy, the negative-power norm and the invariant functional.

For ``2m > n`` the objects are

    E_2m(u, v) = integral of (P_2m u) v over S^n     (a diagonal quadratic form),
    |u^{-1}|^2_{L^q}  with  q = 2n/(2m - n),
    I_2m(u) = |u^{-1}|^2_{L^q} * E_2m(u),

the last being invariant under rescaling u -> c u and under conformal
pullback.  Negative powers require strict positivity, enforced by one
gate on the oversampled grid, relative to the maximum as I is scale free.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfSphereError, NonPositiveFunction
from .gjms import apply_operator, packed_multipliers, s1_derivative_form_coefficients
from .spectral import (
    Discretization,
    QuadratureRule,
    SpectralFunction,
    _aligned,
    discretization,
    min_on_grid,
)

#: the positivity gate passes c when its grid minimum exceeds this times its node maximum
POSITIVITY_FLOOR = 1e-6


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
    """E_2m(u, u) = p . (c c), the products of :func:`energy` without its alignment."""
    c = u.coeffs
    return float(packed_multipliers(u.n, m, u.degree) @ (c * c))


def _positivity_gate(c: np.ndarray, disc: Discretization, refuse: bool = True) -> tuple | None:
    """(values, minimum, maximum) of the coefficients c on the rule nodes, once c passed the gate.

    ``disc`` is the 4x discretization of c's degree.  c passes when its grid minimum, as in
    :func:`min_on_grid`, is a normal float (1 / minimum is finite) above ``POSITIVITY_FLOOR``
    times its node maximum, so the gate decides c u as u.  The nodes are that grid save the
    zonal poles, synthesized once.  Else :class:`NonPositiveFunction`, or None if not ``refuse``.
    """
    vals = disc.values(c)
    low, high = float(vals.min()), float(vals.max())
    grid_low = disc.grid_minimum(c, vals, low)
    if grid_low > POSITIVITY_FLOOR * high and grid_low >= sys.float_info.min:
        return vals, low, high
    if refuse:
        raise NonPositiveFunction(
            f"function fails the positivity floor: grid minimum {grid_low:.3e} is not a normal float"
            f" above {POSITIVITY_FLOOR:g} times the node maximum {high:.3e}"
        )
    return None


def neg_power_integral(u: SpectralFunction, m: int) -> float:
    """integral of u^{-q} over S^n by quadrature (q = 2n/(2m-n)).

    Negative powers are not band-limited: the rule is the 4x-oversampled
    one of the cached discretization.
    """
    disc = discretization(u.n, u.degree, oversample=4)
    q = exponent_q(u.n, m)
    vals = _positivity_gate(u.coeffs, disc)[0]
    return float(disc.rule.weights @ vals ** (-q))


def _at_minimum_one(u: SpectralFunction) -> tuple:
    """(u / k, the 4x node values of u, k), k their minimum once u passed the gate: (u/k)^{-q} is in (0, 1]."""
    vals, k, _ = _positivity_gate(u.coeffs, discretization(u.n, u.degree, oversample=4))
    return u.scaled(1.0 / k), vals, k


def _neg_power_norm(u: SpectralFunction, m: int) -> float:
    return math.exp((2.0 / exponent_q(u.n, m)) * math.log(neg_power_integral(u, m)))  # survives large powers


def neg_power_norm(u: SpectralFunction, m: int) -> float:
    """|u^{-1}|^2_{L^q}, of degree -2: on u / k at minimum one, then over k twice (k * k can underflow)."""
    v, _, k = _at_minimum_one(u)
    return _neg_power_norm(v, m) / k / k


def functional_value(u: SpectralFunction, m: int) -> float:
    """I_2m(u), scale invariant: evaluated on u divided by its minimum on the nodes, u gated as given."""
    v, _, _ = _at_minimum_one(u)
    return _neg_power_norm(v, m) * energy_quadratic(v, m)


def el_residual(u: SpectralFunction, m: int) -> float:
    """L^2 norm of P_2m u - kappa u^{-q-1} with kappa = E(u) / integral(u^{-q}).

    kappa is the unique multiplier making the residual orthogonal to u, so
    the residual vanishes exactly at critical points of the functional.
    Homogeneous of degree 1: taken on u / k at minimum one, times k.
    """
    u, vals, k = _at_minimum_one(u)
    vals = vals / k
    disc = discretization(u.n, u.degree, oversample=4)
    q = exponent_q(u.n, m)
    pu_vals = disc.values(apply_operator(u, m).coeffs)
    kappa = energy_quadratic(u, m) / float(disc.rule.weights @ vals ** (-q))
    res = pu_vals - kappa * vals ** (-q - 1.0)
    return math.sqrt(float(disc.rule.weights @ res**2)) * k


def functional_report(u: SpectralFunction, m: int) -> EnergyReport:
    """The diagnostics of u; :class:`ConfSphereError` if E or the norm is not finite at the scale of u."""
    with np.errstate(over="ignore"):
        e = energy_quadratic(u, m)
    nn = neg_power_norm(u, m)
    if not (math.isfinite(e) and math.isfinite(nn)):
        raise ConfSphereError(f"E ({e!r}) or the negative-power norm ({nn!r}) overflows at this scale")
    return EnergyReport(
        n=u.n,
        m=m,
        energy=e,
        neg_norm=nn,
        functional=nn * e,
        el_residual=el_residual(u, m),
        min_value=min_on_grid(u),
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
    gate; entries past the seventh are ignored.  u^{-q-1} is taken as u^{-q} / u.
    """
    _, vals, _, pc, e, neg, integ = terms[:7]
    # basis @ (weights * pointwise) + pc * (...), built in place in that order
    pointwise = np.divide(neg, vals)
    pointwise *= -2.0 * integ ** (2.0 / q - 1.0) * e
    pointwise *= disc.rule.weights
    out = disc.basis @ pointwise
    out += pc * (2.0 * integ ** (2.0 / q))
    return out


def gradient(u: SpectralFunction, m: int) -> SpectralFunction:
    """Spectral projection of the L^2 gradient of the functional.

    grad I = 2 |u^{-1}|^2 P_2m u - 2 (integral u^{-q})^{2/q - 1} E(u) u^{-q-1},
    truncated at the degree of u.  The kernel is the one of the descent:
    gate, :func:`_value_terms`, :func:`_step_terms`, on u / k at minimum one, then over k
    (:class:`ConfSphereError` if that overflows, for k near the smallest normal float).
    """
    v, vals, k = _at_minimum_one(u)
    disc = discretization(u.n, u.degree, oversample=4)
    q = exponent_q(u.n, m)
    terms = _value_terms(v.coeffs, vals / k, packed_multipliers(u.n, m, disc.degree), q, disc.rule.weights)
    with np.errstate(over="ignore"):
        g = _step_terms(terms, disc, q) / k
    if not np.isfinite(g).all():
        raise ConfSphereError(f"the gradient overflows at this scale (node minimum {k:.3e})")
    return SpectralFunction(u.n, g, u.axis)


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
