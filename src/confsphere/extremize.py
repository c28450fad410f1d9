"""Constrained minimization of the invariant functional.

Quasi-Newton descent in coefficient space with Armijo backtracking.  The
scale freedom is fixed by rescaling every accepted iterate to maximum
one.  The Mobius freedom is left alone: I is invariant under it, so the
descent does not gauge, and the answer is centered once where it is
reported (:func:`confsphere.mobius.recenter`).  Positivity is enforced by
step-length backtracking against the oversampled-grid minimum, never by a
barrier term, so the objective stays exactly the invariant functional.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .errors import InvalidConfig
from .functional import evaluator, functional_value
from .spectral import (
    DEFAULT_DEGREE,
    POSITIVITY_FLOOR,
    SpectralFunction,
    _cached_array,
    constant_function,
    random_band_limited,
)

#: sufficient-decrease factor of the Armijo test of each trial
ARMIJO_FACTOR = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    degree: int = DEFAULT_DEGREE
    max_iter: int = 200
    grad_tol: float = 1e-8

    def __post_init__(self):
        # operator.index refuses a size such as 2.5, inf or NaN, which range()
        # would refuse mid-run; a NaN tolerance, which no gradient norm could
        # fall below, fails "0 < tol < inf" as an infinite one does
        try:
            sizes = [operator.index(x) for x in (self.degree, self.max_iter)]
        except TypeError:
            sizes = [0]
        if not (all(x > 0 for x in sizes) and 0 < self.grad_tol < math.inf):
            raise ValueError("degree and max_iter must be positive integers and grad_tol positive and finite")


@dataclass
class DescentTrace:
    """Per-accepted-step history of one minimization run."""

    values: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    min_values: List[float] = field(default_factory=list)
    barycenter_norms: List[float] = field(default_factory=list)
    termination_reason: str = ""
    iterations: int = 0
    final: Optional[SpectralFunction] = None

    @property
    def best_value(self) -> float:
        return min(self.values)


def minimize(u0: SpectralFunction, m: int, config: OptimizerConfig) -> DescentTrace:
    """Quasi-Newton descent from u0; the trace is non-increasing.

    Acceptance is tested on the max-rescaled candidate so the recorded
    values are monotone in exact float comparison.  When a search tries
    step lengths and none keeps the grid minimum above the positivity floor
    the run stops with ``positivity_breakdown``, the expected concentration
    signature in the unstable range.  Otherwise a search without an
    accepted step ends in ``line_search_stall``: no float-representable
    decrease remains, i.e. stationarity at working precision.  The search
    ends after 60 halvings, or once the predicted decrease alpha * slope
    falls below 4 ulps of |I|, where only rounding noise could pass the
    Armijo test.  A stall usually arrives before the gradient tolerance
    because exactly monotone acceptance cannot push the gradient below
    ~sqrt(eps |I|).  Every candidate passes the relative positivity gate of
    the 4x discretization, so a start at any scale is tested as if at
    maximum one, and a start that fails raises :class:`NonPositiveFunction`.
    The iterate is kept at maximum one, c / cmax, which is gated again when
    its grid minimum lies within 1e-3 of the floor, so ``final`` passes the
    gate of every entry point.

    Direction: memoryless BFGS (Shanno 1978; Nocedal-Wright section 7.2)
    in the diagonal metric D = 2 N0 (1 + |p_2m(alpha)|), N0 = |u0^{-1}|^2_{L^q}
    of the start at maximum one: the energy part of grad is 2 N p c, so
    D^-1 grad is a Newton-like step whose unit trial is in scale.  From the
    pair (s, y) of the last accepted step, d = H grad with
    H = V^T (gamma D^-1) V + rho s s^T, V = I - rho y s^T, rho = 1 / s.y and
    gamma = s.y / y.D^-1 y, which absorbs any constant factor of D.  I is
    homogeneous of degree 0, so grad I(c / k) = k grad I(c): when the
    candidate c - alpha d is rescaled by its maximum k, the pair is stored
    as s = -alpha d / k and y = grad_new - k grad.  A pair with s.y <= 0 is
    dropped, as is a pair direction whose slope grad.d is not positive;
    without a pair, d = D^-1 grad.  The first trial is 1 along a pair
    direction and otherwise the last accepted step (1 at the start); each
    rejected trial halves it.

    No Mobius gauge is fixed: I is invariant under pullback, so ``final``
    is one point of its conformal orbit, and :func:`confsphere.mobius.recenter`
    picks the representative with barycenter zero.  Each row records
    |V(0)|, the norm of the volume barycenter: the first moment of u^{-q}
    over its integral.

    The iterate is held as coefficients of u0's degree, the config's
    ``degree`` (else :class:`InvalidConfig`).  Each candidate is synthesized
    once, by the gate of its 4x discretization; the terms of the accepted
    one give its gradient and barycenter.
    """
    if config.degree != u0.degree:
        raise InvalidConfig(f"config degree {config.degree} is not the degree {u0.degree} of the start")
    n, axis = u0.n, u0.axis
    ev = evaluator(n, m, u0.degree)
    gate, moment, weights = ev.disc.gate, ev.disc.rep.moment, ev.disc.rule.weights
    near_floor = (1.0 + 1e-3) * POSITIVITY_FLOOR
    trace = DescentTrace()

    def admissible(c: np.ndarray, refuse: bool = False) -> Optional[tuple]:
        """The value terms of c at maximum one, then that maximum and the
        node minimum at maximum one; None if c, or c at maximum one next to the
        floor, fails the positivity gate, or the gate's :class:`NonPositiveFunction`
        if ``refuse``."""
        if (gated := gate(c, refuse)) is None:
            return None
        vals, low, cmax = gated
        # division by cmax > 0 is monotone, so low / cmax is the minimum of vals / cmax
        terms = ev.terms(c, vals, cmax) + (cmax, low / cmax)
        # the iterate is kept as c / cmax, whose synthesis rounds otherwise than
        # vals / cmax, by about 1e-16 at maximum one; within 1e-3 of the floor
        # it is gated too, so every iterate passes the entry points' gate
        if low <= near_floor * cmax and gate(terms[0], refuse) is None:
            return None
        return terms

    terms = admissible(u0.coeffs, refuse=True)
    c, current = terms[0], terms[2]
    grad = ev.gradient(terms)

    # the metric D = 2 N0 (1 + |p_2m(alpha)|) evens out the 2m-th order
    # stiffness in the scale of the energy part 2 N p c of grad, with
    # N0 = |u0^{-1}|^2_{L^q} of the start at maximum one
    inv_d = 1.0 / (2.0 * math.exp(ev.two_q * math.log(terms[6])) * ev.metric)
    step = 1.0
    last_grad = None  # grad before the last accepted step
    accepted = 0

    def record():
        neg, integ = terms[5:7]
        trace.values.append(current)
        trace.grad_norms.append(math.sqrt(float(grad.dot(grad))))
        trace.min_values.append(terms[8])
        # |V(0)|: the first moment of u^{-q} over its integral
        trace.barycenter_norms.append(abs(moment(ev.disc, weights * neg, 0)) / integ)

    for _ in range(config.max_iter):
        record()
        if trace.grad_norms[-1] < config.grad_tol:
            trace.termination_reason = "gradient_tolerance"
            break

        pair = None  # (s, y, rho, gamma D^-1) of the last accepted step
        if last_grad is not None:
            # the pair in the scale of the new iterate (see the docstring),
            # formed only once a search follows the step
            k = terms[7]
            s, y = direction * (-step / k), grad - k * last_grad
            sy = float(s.dot(y))
            pair = (s, y, 1.0 / sy, (sy / float(y.dot(y * inv_d))) * inv_d) if sy > 0 else None
        if pair is not None:
            s, y, rho, scaled_inv_d = pair
            a = rho * float(s.dot(grad))
            r = scaled_inv_d * (grad - a * y)
            direction = r + (a - rho * float(y.dot(r))) * s
            slope = float(grad.dot(direction))
            pair = pair if slope > 0 else None
        if pair is None:
            direction = grad * inv_d
            slope = float(grad.dot(direction))
        # below a few ulps of I the predicted decrease is rounding noise
        noise = 4.0 * 2.0**-52 * abs(current)
        alpha = step if pair is None else 1.0
        found = None
        tried = any_positive = False
        for _ in range(60):
            if alpha * slope < noise:
                break
            tried = True
            cand = admissible(c - alpha * direction)
            if cand is not None:
                any_positive = True
                # strict decrease too: below half an ulp of I the Armijo
                # bound admits an equal value, which is no progress
                if cand[2] < current and cand[2] <= current - ARMIJO_FACTOR * alpha * slope:
                    found = cand
                    break
            alpha *= 0.5
        if found is None:
            # a breakdown only if candidates were tried and all fell below
            # the floor; stopping at the rounding floor first is a stall
            trace.termination_reason = (
                "positivity_breakdown" if tried and not any_positive else "line_search_stall"
            )
            break

        accepted += 1
        terms, step, last_grad = found, alpha, grad
        c, current, grad = terms[0], terms[2], ev.gradient(terms)
    else:
        record()
        trace.termination_reason = "max_iterations"

    trace.iterations = accepted
    trace.final = SpectralFunction(n, c, axis)
    return trace


@lru_cache(maxsize=64)
def _unit_constant(n: int, m: int, degree: int) -> tuple:
    """(read-only coefficients of the constant 1 of this degree, its I), computed once."""
    one = constant_function(n, 1.0, degree)
    return _cached_array(one.coeffs), functional_value(one, m)


def perturbation_sweep(
    n: int,
    m: int,
    epsilons,
    trials: int,
    seed: int,
    degree: int = DEFAULT_DEGREE,
) -> list:
    """Gaps I(1 + eps phi) - I(1) over random unit band-limited phi.

    Returns rows (trial, eps, gap).  phi is supported on degrees
    1..``degree // 2``, so a ``degree`` below 2 leaves no degree for phi and
    raises ``ValueError``.  For the locally minimal orders
    every gap is nonnegative up to quadrature noise; in the unstable range
    suitable phi drive the gap negative.  I(1) is computed once per
    ``(n, m, degree)``, and each 1 + eps phi is one coefficient array,
    evaluated as :func:`~confsphere.functional.functional_value` evaluates
    it, by the evaluator of ``(n, m, degree)``.  A non-finite eps raises
    ``ValueError``.
    """
    if not 2 * m > n:
        raise ValueError("the functional requires 2m > n")
    max_degree = degree // 2
    if max_degree < 1:
        raise ValueError(f"max_degree {max_degree} lies outside 1..{degree}")
    rng = np.random.default_rng(seed)
    one, base = _unit_constant(n, m, degree)
    ev = evaluator(n, m, degree)
    rows = []
    for trial in range(trials):
        phi = random_band_limited(n, degree, max_degree, rng)
        unit = phi.coeffs * (1.0 / math.sqrt(phi.norm_sq()))
        for eps in epsilons:
            if eps == 0:
                rows.append((trial, 0.0, 0.0))
                continue
            if not math.isfinite(eps):
                raise ValueError(f"eps {eps!r} is not finite")
            c = one + unit * eps
            vals, k = ev.disc.gate(c)[:2]
            rows.append((trial, float(eps), float(ev.terms(c, vals, k)[2] - base)))
    return rows
