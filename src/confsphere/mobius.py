"""Conformal pullback of spectral functions, extremals and barycenters.

The pullback of ``u`` under a Mobius map ``phi`` at operator order 2m is
``J_phi^{(n-2m)/(2n)} (u o phi)``; the order-2m energy is invariant under
it.  The extremal family is the pullback of constants.  The barycenter
``C(a)`` is the first moment of the pullback under the ball map
``sigma_a``; driving it to zero fixes the Mobius gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AxisMismatch
from .functional import _positivity_gate
from .geometry import (
    AxisDilation,
    BallPoint,
    MobiusMap,
    Rotation,
    as_axis_dilation,
    axis_dilation_jacobian_t,
    axis_dilation_t_map,
    north_pole,
)
from .spectral import (
    TWO_PI,
    Discretization,
    QuadratureRule,
    SpectralFunction,
    discretization_for,
    synthesize,
)


def _circle_axis_angle(axis: np.ndarray) -> float:
    return math.atan2(float(axis[1]), float(axis[0]))


def _dilation_angle_map(theta: np.ndarray, lam: float) -> np.ndarray:
    """Image angle of the dilation about the angle-zero pole on the circle."""
    half = theta / 2.0
    return np.mod(2.0 * np.arctan2(np.sin(half), lam * np.cos(half)), TWO_PI)


def _circle_pullback_values(
    u: SpectralFunction, phi: MobiusMap, m: int, theta: np.ndarray
) -> np.ndarray:
    n = 1
    expo = (n - 2 * m) / (2.0 * n)
    if isinstance(phi, Rotation):
        pts = np.column_stack([np.cos(theta), np.sin(theta)]) @ phi.matrix.T
        mapped = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), TWO_PI)
        return synthesize(u, mapped)
    if isinstance(phi, BallPoint):
        if float(phi.center @ phi.center) == 0.0:
            return synthesize(u, theta)
        phi = as_axis_dilation(phi)
    pole = _circle_axis_angle(phi.axis)
    psi = theta - pole
    jac = axis_dilation_jacobian_t(np.cos(psi), phi.scale, n)
    mapped = np.mod(pole + _dilation_angle_map(psi, phi.scale), TWO_PI)
    return jac**expo * synthesize(u, mapped)


def _zonal_dilation(u: SpectralFunction, phi: MobiusMap) -> AxisDilation:
    """Reduce phi to a dilation about the axis of u (or fail)."""
    if isinstance(phi, BallPoint):
        if float(phi.center @ phi.center) == 0.0:
            return AxisDilation(axis=u.axis, scale=1.0)
        phi = as_axis_dilation(phi)
    if not isinstance(phi, AxisDilation):
        raise AxisMismatch("zonal pullback supports axis dilations only")
    dot = float(phi.axis @ u.axis)
    if abs(dot - 1.0) < 1e-12:
        return phi
    if abs(dot + 1.0) < 1e-12:
        # dilation about the antipode is the inverse dilation about the axis
        return AxisDilation(axis=u.axis, scale=1.0 / phi.scale)
    raise AxisMismatch("Mobius map does not share the zonal axis")


def _zonal_pullback_values(
    u: SpectralFunction, phi: AxisDilation, m: int, t: np.ndarray
) -> np.ndarray:
    n = u.n
    expo = (n - 2 * m) / (2.0 * n)
    jac = axis_dilation_jacobian_t(t, phi.scale, n)
    return jac**expo * synthesize(u, axis_dilation_t_map(t, phi.scale))


def _pullback_values(u: SpectralFunction, phi: MobiusMap, m: int, points: np.ndarray) -> np.ndarray:
    """Values of the pullback of u at ``points``: angles, or axis cosines for zonal u."""
    if u.n == 1:
        return _circle_pullback_values(u, phi, m, points)
    return _zonal_pullback_values(u, _zonal_dilation(u, phi), m, points)


def pullback(
    u: SpectralFunction,
    phi: MobiusMap,
    m: int,
    rule: Optional[QuadratureRule] = None,
) -> SpectralFunction:
    """Conformal pullback, re-projected onto the representation of u.

    The Jacobian weight is not band-limited, so the sampling rule is
    oversampled (2x by default) before re-projection; the energy
    invariance checks are the accuracy meter for this truncation.
    """
    disc = discretization_for(u.n, u.degree, rule, oversample=2)
    return disc.analyze(_pullback_values(u, phi, m, disc.rule.nodes), axis=u.axis)


def extremal_values(n: int, m: int, t: np.ndarray, lam: float, scale: float = 1.0) -> np.ndarray:
    """Closed form of the extremal at axis cosine t.

    c ((1 + lam^2 |pi_xi|^2) / (lam (1 + |pi_xi|^2)))^{(2m-n)/2}, i.e. the
    pullback of the constant c under the dilation of scale lam.
    """
    t = np.asarray(t, dtype=float)
    return scale * (((1.0 - t) + lam * lam * (1.0 + t)) / (2.0 * lam)) ** ((2 * m - n) / 2.0)


def extremal(
    n: int,
    m: int,
    degree: int,
    lam: float,
    scale: float = 1.0,
    axis: Optional[np.ndarray] = None,
    rule: Optional[QuadratureRule] = None,
) -> SpectralFunction:
    """The extremal family member as a spectral function about ``axis``."""
    if not (lam > 0 and scale > 0):
        raise ValueError("extremal requires lam > 0 and scale > 0")
    disc = discretization_for(n, degree, rule, oversample=2)
    if axis is None:
        axis = north_pole(n)
    if n == 1:
        pole = _circle_axis_angle(axis)
        vals = extremal_values(n, m, np.cos(disc.rule.nodes - pole), lam, scale)
        return disc.analyze(vals)
    vals = extremal_values(n, m, disc.rule.nodes, lam, scale)
    return disc.analyze(vals, axis=axis)


# ---------------------------------------------------------------------------
# barycenter and gauge centering
# ---------------------------------------------------------------------------


def barycenter(
    u: SpectralFunction,
    a: np.ndarray,
    m: int,
    rule: Optional[QuadratureRule] = None,
) -> np.ndarray:
    """First moment C(a) of the sigma_a pullback, as a vector of R^{n+1}.

    Without ``rule`` the cached 4x-oversampled discretization is used.  u
    passes the positivity gate of :mod:`confsphere.functional` first.
    """
    disc = discretization_for(u.n, u.degree, rule, oversample=4)
    vals = _positivity_gate(u.coeffs, disc)
    a = np.asarray(a, dtype=float)
    if float(a @ a) != 0.0:
        vals = _pullback_values(u, BallPoint(center=a), m, disc.rule.nodes)
    return disc.first_moment(vals, u.axis)


@dataclass(frozen=True)
class CenterResult:
    a: np.ndarray
    residual: float
    converged: bool
    iterations: int


def find_center(
    u: SpectralFunction,
    m: int,
    rule: Optional[QuadratureRule] = None,
    tol: float = 1e-8,
    max_iter: int = 80,
) -> CenterResult:
    """Solve C(a) = 0 by damped Newton with finite-difference Jacobian.

    The seed is the normalized first moment; zonal inputs reduce to a 1d
    solve along the axis with a bisection fallback.  If the budget runs
    out the best iterate is returned with ``converged=False``.
    """
    disc = discretization_for(u.n, u.degree, rule, oversample=4)
    mass = float(disc.rule.weights @ disc.synthesize(u))
    moment = barycenter(u, np.zeros(u.n + 1), m, rule) / mass
    if u.n == 1:
        return _find_center_newton(u, m, rule, moment, tol, max_iter)
    return _find_center_axis(u, m, rule, moment, tol, max_iter)


def _clip_ball(a: np.ndarray, limit: float = 0.999999) -> np.ndarray:
    r = float(np.linalg.norm(a))
    return a if r < limit else a * (limit / r)


def _find_center_newton(u, m, rule, moment, tol, max_iter) -> CenterResult:
    dim = u.n + 1
    a = _clip_ball(moment / (1.0 + float(np.linalg.norm(moment))))
    c = barycenter(u, a, m, rule)
    best_a, best_r = a.copy(), float(np.linalg.norm(c))
    fd = 1e-6
    for it in range(max_iter):
        if best_r < tol:
            return CenterResult(best_a, best_r, True, it)
        jac = np.zeros((dim, dim))
        for j in range(dim):
            da = np.zeros(dim)
            da[j] = fd
            jac[:, j] = (barycenter(u, _clip_ball(a + da), m, rule) - c) / fd
        try:
            step = np.linalg.solve(jac, -c)
        except np.linalg.LinAlgError:
            step = -c
        improved = False
        for _ in range(30):
            cand = _clip_ball(a + step)
            cc = barycenter(u, cand, m, rule)
            if float(np.linalg.norm(cc)) < float(np.linalg.norm(c)):
                a, c = cand, cc
                improved = True
                break
            step = step / 2.0
        r = float(np.linalg.norm(c))
        if r < best_r:
            best_a, best_r = a.copy(), r
        if not improved:
            break
    return CenterResult(best_a, best_r, best_r < tol, max_iter)


def _find_center_axis(u, m, rule, moment, tol, max_iter) -> CenterResult:
    # the rescaled moment points toward -xi as a -> xi, so the axis
    # component changes sign across the ball and brackets a root
    axis = u.axis

    def component(r: float) -> float:
        return float(barycenter(u, r * axis, m, rule) @ axis)

    lo, hi = -0.999999, 0.999999
    c_lo, c_hi = component(lo), component(hi)
    r0 = float(moment @ axis)
    r = max(lo, min(hi, r0 / (1.0 + abs(r0))))
    c = component(r)
    fd = 1e-7
    for it in range(max_iter):
        if abs(c) < tol:
            return CenterResult(r * axis, abs(c), True, it)
        if c_lo * c > 0:
            lo, c_lo = r, c
        elif c_hi * c > 0:
            hi, c_hi = r, c
        slope = (component(min(r + fd, 0.9999999)) - c) / fd
        cand = r - c / slope if slope != 0.0 else 0.5 * (lo + hi)
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        r, c = cand, component(cand)
    return CenterResult(r * axis, abs(c), abs(c) < tol, max_iter)


def recenter(
    u: SpectralFunction, m: int, rule: Optional[QuadratureRule] = None
) -> tuple:
    """Pull u back by sigma_{a*} with C(a*) = 0; returns (function, CenterResult)."""
    res = find_center(u, m, rule)
    if float(res.a @ res.a) == 0.0:
        return u, res
    return pullback(u, BallPoint(center=res.a), m), res


def boundary_moment_constant(n: int, m: int, num_nodes: int = 400) -> float:
    """The positive constant in the boundary limit of the barycenter map.

    Computed as -integral of (1 - t)^{(2m-n)/2} t over S^n; the limit of
    the rescaled barycenter as a approaches a boundary point xi is this
    constant times -u(-xi) xi.  Measured numerically, no closed form is
    asserted.
    """
    from .spectral import circle_quadrature, zonal_quadrature

    rule = circle_quadrature(num_nodes) if n == 1 else zonal_quadrature(n, num_nodes)
    t = np.cos(rule.nodes) if n == 1 else rule.nodes
    return -float(rule.weights @ ((1.0 - t) ** ((2 * m - n) / 2.0) * t))
