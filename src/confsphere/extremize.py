"""Constrained minimization of the invariant functional.

Projected gradient descent in coefficient space with Armijo backtracking.
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
from typing import List, Optional

import numpy as np

from .errors import InvalidConfig
from .functional import _step_terms, _value_terms, exponent_q, functional_value
from .geometry import BallPoint
from .gjms import packed_multipliers
from .mobius import find_center, pullback
from .spectral import (
    DEFAULT_DEGREE,
    SpectralFunction,
    _ball_moment,
    constant_function,
    discretization,
    random_band_limited,
)


@dataclass(frozen=True)
class OptimizerConfig:
    degree: int = DEFAULT_DEGREE
    max_iter: int = 200
    step_init: float = 1.0
    armijo_factor: float = 1e-4
    positivity_floor: float = 1e-6
    gauge_every: int = 10
    grad_tol: float = 1e-8

    def __post_init__(self):
        if min(self.degree, self.max_iter, self.gauge_every) <= 0:
            raise ValueError("degree, max_iter and gauge_every must be positive")
        if min(self.step_init, self.armijo_factor, self.positivity_floor, self.grad_tol) <= 0:
            raise ValueError("step, Armijo factor, floor and tolerance must be positive")
        if not self.positivity_floor < 1e-3:
            raise ValueError("positivity floor must stay below 1e-3")


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
    """Projected-gradient descent from u0; the trace is non-increasing.

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
    ~sqrt(eps |I|).

    Step length: the first search tries ``step_init``.  After a step alpha
    is accepted with decrease ratio rho = (I_k - I_{k+1}) / (alpha slope),
    the next search starts at 2 alpha (at most 1e6) if rho >= (1 + sigma) / 2,
    sigma the Armijo factor, and at alpha otherwise.  Along the search line
    a quadratic model with minimizer alpha* gives rho(alpha) = 1 - alpha /
    (2 alpha*), so the doubled trial passes Armijo, 1 - alpha / alpha* >=
    sigma, exactly when rho(alpha) >= (1 + sigma) / 2: where the model
    holds, only trials that would be rejected are skipped.

    Gauge: every ``gauge_every`` accepted steps the iterate is recentered
    if its volume barycenter V(0), the first moment of u^{-q} over its
    integral, has |V(0)| / q > 0.01 and the Newton solve for its center
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
    trace = DescentTrace()

    def norm(x: np.ndarray) -> float:
        # np.linalg.norm of a 1-D float array, without its overhead
        return math.sqrt(float(x @ x))

    # a = 0 in node coordinates: a 2-vector on the circle, the float r on the axis
    origin, size = (np.zeros(2), norm) if n == 1 else (0.0, abs)

    def admissible(c: np.ndarray) -> Optional[tuple]:
        """:func:`_value_terms` of c rescaled to maximum one; None at or below the floor."""
        vals = disc.values(c)
        if not disc.grid_minimum(c, vals) > config.positivity_floor:
            return None
        cmax = float(vals.max())
        return _value_terms(c * (1.0 / cmax), vals / cmax, p, q, weights)

    terms = admissible(u0.coeffs)
    if terms is None:
        raise ValueError("initial iterate violates the positivity floor")
    c, current = terms[0], terms[2]
    grad = _step_terms(terms, disc, q)

    # descent direction is the gradient in a fixed diagonal metric
    # (1 + |p_2m(alpha)|), which evens out the 2m-th order stiffness
    precond = 1.0 + np.abs(p)
    sigma = config.armijo_factor
    step = config.step_init
    accepted = 0

    def centroid() -> float:
        """|V(0)| of the iterate: the first moment of u^{-q} over its integral."""
        _, _, _, _, _, neg, integ = terms
        return size(_ball_moment(disc, neg, origin)) / integ

    def record():
        trace.values.append(current)
        trace.grad_norms.append(norm(grad))
        trace.min_values.append(float(terms[1].min()))
        trace.barycenter_norms.append(centroid() if v0 is None else v0)

    v0 = None  # |V(0)| of the iterate, once the gauge check has taken it
    for _ in range(config.max_iter):
        record()
        if trace.grad_norms[-1] < config.grad_tol:
            trace.termination_reason = "gradient_tolerance"
            break

        direction = grad / precond
        slope = float(grad @ direction)
        # below a few ulps of I the predicted decrease is rounding noise
        noise = 4.0 * 2.0**-52 * abs(current)
        alpha = step
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
                if cand[2] < current and cand[2] <= current - sigma * alpha * slope:
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
        # grow the next trial only if this step's decrease ratio predicts
        # that the doubled step passes Armijo (see the docstring)
        rho = (current - found[2]) / (alpha * slope)
        step = min(alpha * 2.0, 1e6) if rho >= (1.0 + sigma) / 2.0 else alpha
        terms = found
        c, current = terms[0], terms[2]
        grad = _step_terms(terms, disc, q)

        # recenter only against real Mobius drift: near the optimum the
        # pullback's truncation noise would otherwise stall the gradient
        v0 = centroid() if accepted % config.gauge_every == 0 else None
        if v0 is not None and v0 > 0.01 * q:
            u = SpectralFunction(n, c, axis)
            center = find_center(u, m)
            # an unconverged center sits at the clip radius: no pullback by it
            cand = admissible(pullback(u, BallPoint(center.a), m).coeffs) if center.converged else None
            # invariant up to truncation; keep only if monotone
            if cand is not None and cand[2] <= current:
                terms, v0 = cand, None
                c, current = terms[0], terms[2]
                grad = _step_terms(terms, disc, q)
    else:
        record()
        trace.termination_reason = "max_iterations"

    trace.iterations = accepted
    trace.final = SpectralFunction(n, c, axis)
    return trace


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

    Returns rows (trial, eps, gap).  For the locally minimal orders every
    gap is nonnegative up to quadrature noise; in the unstable range
    suitable phi drive the gap negative.
    """
    if not 2 * m > n:
        raise ValueError("the functional requires 2m > n")
    rng = np.random.default_rng(seed)
    max_degree = max_degree if max_degree is not None else degree // 2
    one = constant_function(n, 1.0, degree)
    base = functional_value(one, m)
    rows = []
    for trial in range(trials):
        phi = random_band_limited(n, degree, max_degree, rng)
        phi = phi.scaled(1.0 / math.sqrt(phi.norm_sq()))
        for eps in epsilons:
            if eps == 0:
                rows.append((trial, 0.0, 0.0))
                continue
            perturbed = one + phi.scaled(eps)
            gap = functional_value(perturbed, m) - base
            rows.append((trial, float(eps), float(gap)))
    return rows
