"""The conformal energy, the negative-power norm and the invariant functional.

For ``2m > n`` the objects are

    E_2m(u, v) = integral of (P_2m u) v over S^n     (a diagonal quadratic form),
    |u^{-1}|^2_{L^q}  with  q = 2n/(2m - n),
    I_2m(u) = |u^{-1}|^2_{L^q} * E_2m(u),

the last being invariant under rescaling u -> c u and under conformal
pullback.  Negative powers require strict positivity, enforced by one
gate on the oversampled grid, relative to the maximum as I is scale free.
Every entry point reads the terms of u at node minimum one from one gated
synthesis, :func:`neg_power_integral`; the descent gates at maximum one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfSphereError, NonPositiveFunction
from .gjms import packed_multipliers, s1_derivative_form_coefficients
from .spectral import (
    Discretization,
    QuadratureRule,
    SpectralFunction,
    _aligned,
    discretization,
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
    return float(packed_multipliers(u.n, m, max(u.degree, v.degree)).dot(a * b))


def energy_quadratic(u: SpectralFunction, m: int) -> float:
    """E_2m(u, u) = p . (c c), the products of :func:`energy` without its alignment."""
    c = u.coeffs
    return float(packed_multipliers(u.n, m, u.degree).dot(c * c))


def _positivity_gate(c: np.ndarray, disc: Discretization, refuse: bool = True) -> tuple | None:
    """(values, minimum, maximum) of the coefficients c on the rule nodes and their grid minimum, once c passed.

    ``disc`` is the 4x discretization of c's degree.  c passes when its grid minimum, as in
    :func:`min_on_grid`, is a normal float (1 / minimum is finite) above ``POSITIVITY_FLOOR``
    times its node maximum, so the gate decides c u as u.  The nodes are that grid save the
    zonal poles, synthesized once.  Else :class:`NonPositiveFunction`, or None if not ``refuse``.
    """
    vals = disc.values(c)
    low, high = float(vals.min()), float(vals.max())
    grid_low = disc.grid_minimum(c, low)
    if grid_low > POSITIVITY_FLOOR * high and grid_low >= sys.float_info.min:
        return vals, low, high, grid_low
    if refuse:
        why = f"above {POSITIVITY_FLOOR:g} times the node maximum {high:.3e}"
        why = "a normal float" if grid_low > POSITIVITY_FLOOR * high else why
        raise NonPositiveFunction(f"function fails the positivity floor: grid minimum {grid_low:.3e} is not {why}")
    return None


def neg_power_integral(u: SpectralFunction, m: int) -> tuple:
    """The one gated evaluation of u: :func:`_value_terms` of u / k, then k, the node minimum, and the grid minimum.

    u passes :func:`_positivity_gate` once on the nodes of its 4x
    discretization, as negative powers are not band-limited.  The tuple is
    (c / k, u / k on the nodes, I, p c / k, E(u / k), (u / k)^{-q}, J, k,
    min_on_grid(u)): J, the integral of (u / k)^{-q}, lies in (0, |S^n|], so
    the integral of u^{-q} is J k^{-q} and the functional entry points all
    read from here.
    """
    disc = discretization(u.n, u.degree, oversample=4)
    vals, k, _, grid_low = _positivity_gate(u.coeffs, disc)
    p = packed_multipliers(u.n, m, u.degree)
    terms = _value_terms(u.coeffs * (1.0 / k), vals / k, p, exponent_q(u.n, m), disc.rule.weights)
    return terms + (k, grid_low)


def _neg_norm(terms: tuple, q: float) -> float:
    """|u^{-1}|^2_{L^q} from :func:`neg_power_integral`: J^{2/q} (survives large powers), over k twice."""
    k = terms[7]
    return math.exp((2.0 / q) * math.log(terms[6])) / k / k  # k * k can underflow


def neg_power_norm(u: SpectralFunction, m: int) -> float:
    """|u^{-1}|^2_{L^q}, of degree -2: taken at node minimum one, then rescaled."""
    return _neg_norm(neg_power_integral(u, m), exponent_q(u.n, m))


def functional_value(u: SpectralFunction, m: int) -> float:
    """I_2m(u), scale invariant: evaluated on u divided by its minimum on the nodes, u gated as given."""
    return neg_power_integral(u, m)[2]


def _residual(u: SpectralFunction, terms: tuple) -> float:
    """:func:`el_residual` from the terms of u; u^{-q-1} is taken as u^{-q} / u, as in :func:`_step_terms`."""
    disc = discretization(u.n, u.degree, oversample=4)
    _, vals, _, pc, e, neg, integ, k = terms[:8]
    res = disc.values(pc) - (e / integ) * (neg / vals)
    return math.sqrt(float(disc.rule.weights.dot(res**2))) * k


def el_residual(u: SpectralFunction, m: int) -> float:
    """L^2 norm of P_2m u - kappa u^{-q-1} with kappa = E(u) / integral(u^{-q}).

    kappa is the unique multiplier making the residual orthogonal to u, so
    the residual vanishes exactly at critical points of the functional.
    Homogeneous of degree 1: taken on u / k at minimum one, times k.
    """
    return _residual(u, neg_power_integral(u, m))


def functional_report(u: SpectralFunction, m: int) -> EnergyReport:
    """The diagnostics of u from one gate; :class:`ConfSphereError` if E or the norm is not finite at its scale."""
    with np.errstate(over="ignore"):
        e = energy_quadratic(u, m)
    terms = neg_power_integral(u, m)
    nn = _neg_norm(terms, exponent_q(u.n, m))
    if not (math.isfinite(e) and math.isfinite(nn)):
        raise ConfSphereError(f"E ({e!r}) or the negative-power norm ({nn!r}) overflows at this scale")
    return EnergyReport(
        n=u.n,
        m=m,
        energy=e,
        neg_norm=nn,
        functional=nn * e,
        el_residual=_residual(u, terms),
        min_value=terms[8],
    )


def _neg_power(vals: np.ndarray, q: float, weights: np.ndarray) -> tuple:
    """(u^{-q}, integral u^{-q}) from the node values ``vals`` of u, which passed a positivity gate."""
    neg = vals ** (-q)
    return neg, float(weights.dot(neg))


def _value_terms(c: np.ndarray, vals: np.ndarray, p: np.ndarray, q: float, weights: np.ndarray) -> tuple:
    """(c, vals, I, p c, E, u^{-q}, integral u^{-q}) of the coefficients c.

    ``vals`` are the values of c on the nodes of ``weights`` and have
    passed a positivity gate; ``p`` are the packed multipliers.  The tuple
    is what :func:`_step_terms` takes.
    """
    neg, integ = _neg_power(vals, q, weights)
    pc = p * c
    e = float(pc.dot(c))
    return c, vals, math.exp((2.0 / q) * math.log(integ)) * e, pc, e, neg, integ


def _step_terms(terms: tuple, disc: Discretization, q: float) -> np.ndarray:
    """Gradient coefficients from :func:`_value_terms`.

    They come from the node values held in ``terms``: no synthesis and no
    gate; entries past the seventh are ignored.  u^{-q-1} is taken as u^{-q} / u.
    """
    _, vals, _, pc, e, neg, integ = terms[:7]
    # basis . (weights * pointwise) + pc * (...), built in place in that order
    pointwise = np.divide(neg, vals)
    pointwise *= -2.0 * integ ** (2.0 / q - 1.0) * e
    pointwise *= disc.rule.weights
    out = disc.basis.dot(pointwise)
    out += pc * (2.0 * integ ** (2.0 / q))
    return out


def gradient(u: SpectralFunction, m: int) -> SpectralFunction:
    """Spectral projection of the L^2 gradient of the functional.

    grad I = 2 |u^{-1}|^2 P_2m u - 2 (integral u^{-q})^{2/q - 1} E(u) u^{-q-1},
    truncated at the degree of u.  The kernel is the one of the descent:
    :func:`_step_terms` of :func:`neg_power_integral`, on u / k at minimum one, then over k
    (:class:`ConfSphereError` if that overflows, for k near the smallest normal float).
    """
    terms = neg_power_integral(u, m)
    k = terms[7]
    with np.errstate(over="ignore"):
        g = _step_terms(terms, discretization(u.n, u.degree, oversample=4), exponent_q(u.n, m)) / k
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
        total += float(ej) * float(rule.weights.dot(vj**2))
    return total
