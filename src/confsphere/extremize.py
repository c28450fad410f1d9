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

from .functional import exponent_q, functional_value, gradient
from .gjms import packed_multipliers
from .mobius import barycenter, recenter
from .spectral import (
    DEFAULT_DEGREE,
    SpectralFunction,
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
    seed: int = 0
    # descent direction is the gradient in a fixed diagonal metric
    # (1 + |p_2m(alpha)|), which evens out the 2m-th order stiffness
    precondition: bool = True

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


class _Objective:
    """I_2m evaluated on the cached 4x-oversampled discretization.

    ``gradient``, ``barycenter`` and ``recenter`` default to the same
    discretization, so the descent passes them no rule.
    """

    def __init__(self, n: int, m: int, degree: int):
        self.q = exponent_q(n, m)
        self.disc = discretization(n, degree, oversample=4)
        self.p_packed = packed_multipliers(n, m, degree)

    def values_on_grid(self, u: SpectralFunction) -> np.ndarray:
        return self.disc.synthesize(u)

    def value(self, u: SpectralFunction, vals: np.ndarray) -> float:
        integ = float(self.disc.rule.weights @ vals ** (-self.q))
        e = float((self.p_packed * u.coeffs) @ u.coeffs)
        return math.exp((2.0 / self.q) * math.log(integ)) * e


def minimize(u0: SpectralFunction, m: int, config: OptimizerConfig) -> DescentTrace:
    """Projected-gradient descent from u0; the trace is non-increasing.

    Acceptance is tested on the max-rescaled candidate so the recorded
    values are monotone in exact float comparison.  When no step length
    keeps the grid minimum above the positivity floor the run stops with
    ``positivity_breakdown``, the expected concentration signature in the
    unstable range.  ``line_search_stall`` means no float-representable
    decrease remains, i.e. stationarity at working precision; it usually
    arrives before the gradient tolerance because exactly monotone
    acceptance cannot push the gradient below ~sqrt(eps |I|).
    """
    n = u0.n
    obj = _Objective(n, m, u0.degree)
    trace = DescentTrace()

    u = u0
    vals = obj.values_on_grid(u)
    if float(np.min(vals)) <= config.positivity_floor:
        raise ValueError("initial iterate violates the positivity floor")
    u = u.scaled(1.0 / float(np.max(vals)))
    vals = obj.values_on_grid(u)
    current = obj.value(u, vals)

    precond = 1.0 + np.abs(obj.p_packed) if config.precondition else np.ones_like(obj.p_packed)
    step = config.step_init
    accepted = 0

    def record(gnorm: float):
        trace.values.append(current)
        trace.grad_norms.append(gnorm)
        trace.min_values.append(float(np.min(vals)))
        trace.barycenter_norms.append(
            float(np.linalg.norm(barycenter(u, np.zeros(n + 1), m)))
        )

    for it in range(config.max_iter):
        g = gradient(u, m)
        gnorm = float(np.linalg.norm(g.coeffs))
        record(gnorm)
        if gnorm < config.grad_tol:
            trace.termination_reason = "gradient_tolerance"
            break

        direction = g.coeffs / precond
        slope = float(g.coeffs @ direction)
        alpha = step
        accepted_step = False
        any_positive = False
        for _ in range(60):
            cand = SpectralFunction(n, u.coeffs - alpha * direction, u.axis)
            cvals = obj.values_on_grid(cand)
            cmin = float(np.min(cvals))
            if cmin > config.positivity_floor:
                any_positive = True
                cmax = float(np.max(cvals))
                cand = cand.scaled(1.0 / cmax)
                cvals = cvals / cmax
                cand_value = obj.value(cand, cvals)
                if cand_value <= current - config.armijo_factor * alpha * slope:
                    u, vals, current = cand, cvals, cand_value
                    accepted_step = True
                    break
            alpha *= 0.5
        if not accepted_step:
            trace.termination_reason = (
                "line_search_stall" if any_positive else "positivity_breakdown"
            )
            break

        accepted += 1
        step = min(alpha * 2.0, 1e6)

        if config.gauge_every and accepted % config.gauge_every == 0:
            mass = float(obj.disc.rule.weights @ vals)
            drift = float(np.linalg.norm(barycenter(u, np.zeros(n + 1), m))) / max(mass, 1e-300)
            # recenter only against real Mobius drift: near the optimum the
            # pullback's truncation noise would otherwise stall the gradient
            if drift > 0.01:
                centered, _ = recenter(u, m)
                cvals = obj.values_on_grid(centered)
                if float(np.min(cvals)) > config.positivity_floor:
                    cmax = float(np.max(cvals))
                    centered = centered.scaled(1.0 / cmax)
                    cvals = cvals / cmax
                    value = obj.value(centered, cvals)
                    # invariant up to truncation; keep only if monotone
                    if value <= current:
                        u, vals, current = centered, cvals, value
    else:
        g = gradient(u, m)
        record(float(np.linalg.norm(g.coeffs)))
        trace.termination_reason = "max_iterations"

    trace.iterations = accepted
    trace.final = u
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
