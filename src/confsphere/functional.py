"""The conformal energy, the negative-power norm and the invariant functional.

For ``2m > n`` the objects are

    E_2m(u, v) = integral of (P_2m u) v over S^n     (a diagonal quadratic form),
    |u^{-1}|^2_{L^q}  with  q = 2n/(2m - n),
    I_2m(u) = |u^{-1}|^2_{L^q} * E_2m(u),

the last being invariant under rescaling u -> c u and under conformal
pullback.  Negative powers require strict positivity, enforced by the
gate of the oversampled discretization, relative to the maximum as I is
scale free.  One :class:`Evaluator` per ``(n, m, degree)`` holds the value
terms and the gradient kernel on it.  Every entry point reads the terms of
u at node minimum one from one gated synthesis, :func:`neg_power_integral`;
the descent gates at maximum one, on the same discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfSphereError
from .gjms import packed_multipliers, s1_derivative_form_coefficients
from .spectral import (
    Discretization,
    QuadratureRule,
    SpectralFunction,
    _aligned,
    _cached_array,
    discretization,
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
    return float(packed_multipliers(u.n, m, max(u.degree, v.degree)).dot(a * b))


def energy_quadratic(u: SpectralFunction, m: int) -> float:
    """E_2m(u, u) = p . (c c), the products of :func:`energy` without its alignment."""
    c = u.coeffs
    return float(packed_multipliers(u.n, m, u.degree).dot(c * c))


@dataclass(frozen=True, eq=False, slots=True)
class Evaluator:
    """The value terms and the gradient kernel of degree-``degree`` coefficients at order 2m.

    :func:`evaluator` builds one per ``(n, m, degree)`` on the 4x
    discretization ``disc`` and keeps it there.  ``disc`` holds the arrays
    every evaluation reads: the basis on the rule nodes and its transposed
    view, the rule weights, the node points of the moments, and the
    positivity gate (:meth:`~confsphere.spectral.Discretization.gate`).  The
    evaluator adds the order: the packed multipliers ``p``, the exponent
    ``q`` and ``two_q`` = 2 / q, and ``metric`` = 1 + |p|, the descent's
    metric before its scale.  Every array is read-only.
    """

    disc: Discretization
    p: np.ndarray
    q: float
    two_q: float
    metric: np.ndarray

    def terms(self, c: np.ndarray, vals: np.ndarray, k: float) -> tuple:
        """(c / k, vals / k, I, p c / k, E(u / k), (u / k)^{-q}, integral (u / k)^{-q}) of the coefficients c.

        ``vals`` are the values of c on the nodes from the gate of ``disc``,
        and k > 0 is a scale it returned.  The tuple is what :meth:`gradient` takes.
        """
        c = c * (1.0 / k)
        vals = vals / k
        neg = vals ** (-self.q)
        integ = float(self.disc.rule.weights.dot(neg))
        pc = self.p * c
        e = float(pc.dot(c))
        return c, vals, math.exp(self.two_q * math.log(integ)) * e, pc, e, neg, integ

    def gradient(self, terms: tuple) -> np.ndarray:
        """Gradient coefficients from :meth:`terms`.

        They come from the node values held in ``terms``: no synthesis and no
        gate; entries past the seventh are ignored.  u^{-q-1} is taken as u^{-q} / u.
        """
        _, vals, _, pc, e, neg, integ = terms[:7]
        # basis . (weights * pointwise) + pc * (...), built in place in that order
        pointwise = np.divide(neg, vals)
        pointwise *= -2.0 * integ ** (self.two_q - 1.0) * e
        pointwise *= self.disc.rule.weights
        out = self.disc.basis.dot(pointwise)
        out += pc * (2.0 * integ ** self.two_q)
        return out


def evaluator(n: int, m: int, degree: int) -> Evaluator:
    """The :class:`Evaluator` of degree-``degree`` functions on S^n at order 2m, built once.

    It is kept in the ``evaluators`` of its cached 4x discretization, so it
    lives as long as the cache holds that discretization and is emptied with
    it (:func:`confsphere.spectral.clear_caches`).  On a discretization too
    large to cache it is built for its call and not stored.
    """
    disc = discretization(n, degree, oversample=4)
    held = disc.evaluators
    ev = None if held is None else held.get(m)
    if ev is None:
        p = packed_multipliers(n, m, degree)
        q = exponent_q(n, m)
        ev = Evaluator(disc, p, q, 2.0 / q, _cached_array(1.0 + np.abs(p)))
        if held is not None:
            held[m] = ev
    return ev


def neg_power_integral(u: SpectralFunction, m: int) -> tuple:
    """The one gated evaluation of u: :meth:`Evaluator.terms` of u / k, then k twice and the evaluator.

    u passes the positivity gate once on the nodes of its 4x discretization
    (:meth:`~confsphere.spectral.Discretization.gate`), as negative powers
    are not band-limited, and k is its grid minimum, min_on_grid(u).  The
    tuple is (c / k, u / k on the nodes, I, p c / k, E(u / k), (u / k)^{-q},
    J, k, k, evaluator), the layout of the descent's terms, whose eighth and
    ninth entries are its scale and its node minimum: J, the integral of
    (u / k)^{-q}, lies in (0, |S^n|], so the integral of u^{-q} is J k^{-q}:
    the functional entry points and the Mobius gauge all read from here.
    """
    ev = evaluator(u.n, m, u.degree)
    vals, k = ev.disc.gate(u.coeffs)[:2]
    return ev.terms(u.coeffs, vals, k) + (k, k, ev)


def _neg_norm(terms: tuple) -> float:
    """|u^{-1}|^2_{L^q} from :func:`neg_power_integral`: J^{2/q} (survives large powers), over k twice."""
    k = terms[7]
    return math.exp(terms[9].two_q * math.log(terms[6])) / k / k  # k * k can underflow


def neg_power_norm(u: SpectralFunction, m: int) -> float:
    """|u^{-1}|^2_{L^q}, of degree -2: taken at node minimum one, then rescaled."""
    return _neg_norm(neg_power_integral(u, m))


def functional_value(u: SpectralFunction, m: int) -> float:
    """I_2m(u), scale invariant: evaluated on u divided by its minimum on the nodes, u gated as given."""
    return neg_power_integral(u, m)[2]


def _residual(terms: tuple) -> float:
    """:func:`el_residual` from the terms of u; u^{-q-1} is taken as u^{-q} / u, as in :meth:`Evaluator.gradient`."""
    _, vals, _, pc, e, neg, integ, k, _, ev = terms
    res = ev.disc.basis_t.dot(pc) - (e / integ) * (neg / vals)
    return math.sqrt(float(ev.disc.rule.weights.dot(res**2))) * k


def el_residual(u: SpectralFunction, m: int) -> float:
    """L^2 norm of P_2m u - kappa u^{-q-1} with kappa = E(u) / integral(u^{-q}).

    kappa is the unique multiplier making the residual orthogonal to u, so
    the residual vanishes exactly at critical points of the functional.
    Homogeneous of degree 1: taken on u / k at minimum one, times k.
    """
    return _residual(neg_power_integral(u, m))


def functional_report(u: SpectralFunction, m: int) -> EnergyReport:
    """The diagnostics of u from one gate; :class:`ConfSphereError` if E or the norm is not finite at its scale."""
    with np.errstate(over="ignore"):
        e = energy_quadratic(u, m)
    terms = neg_power_integral(u, m)
    nn = _neg_norm(terms)
    if not (math.isfinite(e) and math.isfinite(nn)):
        raise ConfSphereError(f"E ({e!r}) or the negative-power norm ({nn!r}) overflows at this scale")
    return EnergyReport(
        n=u.n,
        m=m,
        energy=e,
        neg_norm=nn,
        functional=nn * e,
        el_residual=_residual(terms),
        min_value=terms[8],
    )


def gradient(u: SpectralFunction, m: int) -> SpectralFunction:
    """Spectral projection of the L^2 gradient of the functional.

    grad I = 2 |u^{-1}|^2 P_2m u - 2 (integral u^{-q})^{2/q - 1} E(u) u^{-q-1},
    truncated at the degree of u.  The kernel is the one of the descent:
    :meth:`Evaluator.gradient` of :func:`neg_power_integral`, on u / k at minimum one, then over k
    (:class:`ConfSphereError` if that overflows, for k near the smallest normal float).
    """
    terms = neg_power_integral(u, m)
    k = terms[7]
    with np.errstate(over="ignore"):
        g = terms[9].gradient(terms) / k
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
