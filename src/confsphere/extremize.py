"""Constrained minimization of the invariant functional.

Quasi-Newton descent in coefficient space with Armijo backtracking.
Scale and Mobius gauge freedom are fixed the way compactness is restored
in the underlying variational argument: after every accepted step the
iterate is rescaled to maximum one, and periodically it is recentered by
the barycenter map.  Positivity is enforced by step-length backtracking
against the oversampled-grid minimum, never by a barrier term, so the
objective stays exactly the invariant functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .errors import InvalidConfig
from .functional import POSITIVITY_FLOOR, _positivity_gate, _step_terms, _value_terms, exponent_q, functional_value
from .geometry import BallPoint
from .gjms import packed_multipliers
from .mobius import find_center, pullback
from .spectral import (
    DEFAULT_DEGREE,
    SpectralFunction,
    _ball_moment,
    _cached_array,
    constant_function,
    discretization,
    random_band_limited,
)

#: sufficient-decrease factor of the Armijo test of each trial
ARMIJO_FACTOR = 1e-4
#: accepted steps between two gauge checks
GAUGE_EVERY = 10


@dataclass(frozen=True)
class OptimizerConfig:
    degree: int = DEFAULT_DEGREE
    max_iter: int = 200
    grad_tol: float = 1e-8

    def __post_init__(self):
        # "not > 0" refuses NaN too, which no gradient norm could fall below
        if not all(x > 0 for x in (self.degree, self.max_iter, self.grad_tol)):
            raise ValueError("degree, max_iter and grad_tol must be positive")


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
    :mod:`confsphere.functional`, so a start at any scale is tested as if at
    maximum one, and a start that fails raises :class:`NonPositiveFunction`.
    The iterate is kept at maximum one, c / cmax, which is gated again when
    its grid minimum lies within 1e-3 of the floor, so ``final`` passes the
    gate of every entry point.

    Direction: memoryless BFGS (Shanno 1978; Nocedal-Wright section 7.2)
    in the diagonal metric D = 1 + |p_2m(alpha)|.  From the pair (s, y) of
    the last accepted step, d = H grad with H = V^T (gamma D^-1) V + rho s s^T,
    V = I - rho y s^T, rho = 1 / s.y and gamma = s.y / y.D^-1 y.  I is
    homogeneous of degree 0, so grad I(c / k) = k grad I(c): when the
    candidate c - alpha d is rescaled by its maximum k, the pair is stored
    as s = -alpha d / k and y = grad_new - k grad.  A pair with s.y <= 0 is
    dropped, as is the pair before a kept recenter, and a pair direction
    whose slope grad.d is not positive; without a pair, d = D^-1 grad.  The
    first trial is 1 along a pair direction and otherwise the last accepted
    step (1 at the start); each rejected trial halves it.

    Gauge: every ``GAUGE_EVERY`` accepted steps the iterate is recentered
    if its gradient norm is not below ``grad_tol`` (else it is the last
    iterate), its volume barycenter V(0), the first moment of u^{-q} over
    its integral, has |V(0)| / q > 0.01 and the Newton solve for its center
    converged.  For u = 1 + eps phi, u^{-q} = 1 - q eps phi + O(eps^2), so
    |V(0)| / q is to first order the first moment of u over its integral.

    The iterate is held as coefficients of u0's degree, the config's
    ``degree`` (else :class:`InvalidConfig`).  Each candidate is synthesized
    once; the terms of the accepted one give its gradient and barycenter.
    """
    if config.degree != u0.degree:
        raise InvalidConfig(f"config degree {config.degree} is not the degree {u0.degree} of the start")
    n, axis = u0.n, u0.axis
    q = exponent_q(n, m)
    disc = discretization(n, u0.degree, oversample=4)
    p = packed_multipliers(n, m, u0.degree)
    weights = disc.rule.weights
    near_floor = (1.0 + 1e-3) * POSITIVITY_FLOOR
    trace = DescentTrace()

    def norm(x: np.ndarray) -> float:
        # np.linalg.norm of a 1-D float array, without its overhead
        return math.sqrt(float(x.dot(x)))

    def admissible(c: np.ndarray, refuse: bool = False) -> Optional[tuple]:
        """:func:`_value_terms` of c at maximum one, then that maximum and the
        node minimum at maximum one; None if c, or c at maximum one next to the
        floor, fails the positivity gate, or the gate's :class:`NonPositiveFunction`
        if ``refuse``."""
        if (gated := _positivity_gate(c, disc, refuse)) is None:
            return None
        vals, low, cmax, grid_low = gated
        # division by cmax > 0 is monotone, so low / cmax is the minimum of vals / cmax
        terms = _value_terms(c * (1.0 / cmax), vals / cmax, p, q, weights) + (cmax, low / cmax)
        # the iterate is kept as c / cmax, whose synthesis rounds otherwise than
        # vals / cmax, by about 1e-16 at maximum one; within 1e-3 of the floor
        # it is gated too, so every iterate passes the entry points' gate
        if grid_low <= near_floor * cmax and _positivity_gate(terms[0], disc, refuse) is None:
            return None
        return terms

    terms = admissible(u0.coeffs, refuse=True)
    c, current = terms[0], terms[2]
    grad = _step_terms(terms, disc, q)

    # the metric D = 1 + |p_2m(alpha)| evens out the 2m-th order stiffness
    inv_d = 1.0 / (1.0 + np.abs(p))
    step = 1.0
    pair = None  # (s, y, rho, gamma D^-1) of the last accepted step
    accepted = 0

    def centroid() -> float:
        """|V(0)| of the iterate: the first moment of u^{-q} over its integral."""
        neg, integ = terms[5:7]
        return abs(_ball_moment(disc, neg, 0)) / integ

    def record():
        trace.values.append(current)
        trace.grad_norms.append(norm(grad))
        trace.min_values.append(terms[8])
        trace.barycenter_norms.append(centroid() if v0 is None else v0)

    v0 = None  # |V(0)| of the iterate, once the gauge check has taken it
    for _ in range(config.max_iter):
        record()
        if trace.grad_norms[-1] < config.grad_tol:
            trace.termination_reason = "gradient_tolerance"
            break

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
        # the pair in the scale of the new iterate (see the docstring)
        terms, k, step = found, found[7], alpha
        new_grad = _step_terms(terms, disc, q)
        s, y = direction * (-alpha / k), new_grad - k * grad
        sy = float(s.dot(y))
        pair = (s, y, 1.0 / sy, (sy / float(y.dot(y * inv_d))) * inv_d) if sy > 0 else None
        c, current, grad = terms[0], terms[2], new_grad

        # recenter only against real Mobius drift: near the optimum the
        # pullback's truncation noise would otherwise stall the gradient
        v0 = centroid() if accepted % GAUGE_EVERY == 0 and norm(grad) >= config.grad_tol else None
        if v0 is not None and v0 > 0.01 * q:
            u = SpectralFunction(n, c, axis)
            center = find_center(u, m)
            # an unconverged center sits at the clip radius: no pullback by it
            cand = admissible(pullback(u, BallPoint(center.a), m).coeffs) if center.converged else None
            # invariant up to truncation; keep only if monotone
            if cand is not None and cand[2] <= current:
                terms, v0, pair = cand, None, None
                c, current = terms[0], terms[2]
                grad = _step_terms(terms, disc, q)
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
    max_degree: Optional[int] = None,
) -> list:
    """Gaps I(1 + eps phi) - I(1) over random unit band-limited phi.

    Returns rows (trial, eps, gap).  phi is supported on degrees
    1..``max_degree`` (default ``degree // 2``), which must lie in
    1..``degree``, else ``ValueError``.  For the locally minimal orders
    every gap is nonnegative up to quadrature noise; in the unstable range
    suitable phi drive the gap negative.  I(1) is computed once per
    ``(n, m, degree)`` and each 1 + eps phi is one coefficient array.
    """
    if not 2 * m > n:
        raise ValueError("the functional requires 2m > n")
    max_degree = max_degree if max_degree is not None else degree // 2
    if not 1 <= max_degree <= degree:
        raise ValueError(f"max_degree {max_degree} lies outside 1..{degree}")
    rng = np.random.default_rng(seed)
    one, base = _unit_constant(n, m, degree)
    rows = []
    for trial in range(trials):
        phi = random_band_limited(n, degree, max_degree, rng)
        unit = phi.coeffs * (1.0 / math.sqrt(phi.norm_sq()))
        for eps in epsilons:
            if eps == 0:
                rows.append((trial, 0.0, 0.0))
                continue
            gap = functional_value(SpectralFunction(n, one + unit * eps, phi.axis), m) - base
            rows.append((trial, float(eps), float(gap)))
    return rows
