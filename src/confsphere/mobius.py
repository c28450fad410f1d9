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
    _ball_moment,
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


#: largest |a| at which C(a) is summed from the node values of u.  Above it
#: the weight of the node form concentrates more than the nodes resolve, and
#: u is evaluated at the points sigma_a maps the nodes to instead.
NODE_FORM_RADIUS = 0.5


def _moment(
    u: SpectralFunction, disc: Discretization, vals: np.ndarray, x: np.ndarray, m: int, slope: bool = False
):
    """C at the ball point x from the values ``vals`` of u on the nodes of ``disc``.

    x and the result are in node coordinates: a itself on the circle, and
    r = a . xi on the axis xi of zonal u.  With ``slope`` the result is
    (C, dC/dx), and the node form gives the slope at every radius.
    """
    p = (u.n + 2 * m) / 2.0
    if float(x @ x) <= NODE_FORM_RADIUS**2:
        return _ball_moment(disc, vals, x, p, slope)
    if u.n == 1:
        c = disc.first_moment(_pullback_values(u, BallPoint(center=x), m, disc.rule.nodes))
    else:
        c = np.array(_mapped_axis_moments(u, m, disc, [float(x[0])]))
    return (c, _ball_moment(disc, vals, x, p, True)[1]) if slope else c


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
    if u.n == 1:
        return _moment(u, disc, vals, a, m)
    if float(a @ a) != 0.0:
        _zonal_dilation(u, BallPoint(center=a))  # AxisMismatch off the axis of u
    return float(_moment(u, disc, vals, np.array([a @ u.axis]), m)[0]) * u.axis


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
    """Solve C(a) = 0 by damped Newton with the closed-form Jacobian.

    u passes the positivity gate once, and every C(a) and its derivative
    are taken from its values on the nodes (see :func:`barycenter`).  The
    seed is the normalized first moment; zonal inputs reduce to a 1d solve
    along the axis with a bisection fallback.  If the budget runs out, or
    the circle's line search finds no decrease, the best iterate is
    returned with ``converged=False`` and the number of steps taken.
    """
    disc = discretization_for(u.n, u.degree, rule, oversample=4)
    vals = _positivity_gate(u.coeffs, disc)

    def moment(x: np.ndarray, slope: bool = False):
        return _moment(u, disc, vals, x, m, slope)

    seed = moment(np.zeros(2 if u.n == 1 else 1)) / float(disc.rule.weights @ vals)
    if u.n == 1:
        return _find_center_newton(moment, seed, tol, max_iter)
    return _find_center_axis(u, moment, float(seed[0]), tol, max_iter)


def _clip_ball(a: np.ndarray, limit: float = 0.999999) -> np.ndarray:
    r = float(np.linalg.norm(a))
    return a if r < limit else a * (limit / r)


def _find_center_newton(moment, seed, tol, max_iter) -> CenterResult:
    a = _clip_ball(seed / (1.0 + float(np.linalg.norm(seed))))
    c, jac = moment(a, slope=True)
    r = float(np.linalg.norm(c))
    best_a, best_r = a.copy(), r
    for it in range(max_iter):
        if best_r < tol:
            return CenterResult(best_a, best_r, True, it)
        try:
            step = np.linalg.solve(jac, -c)
        except np.linalg.LinAlgError:
            step = -c
        for _ in range(30):
            cand = _clip_ball(a + step)
            cc, cjac = moment(cand, slope=True)
            rc = float(np.linalg.norm(cc))
            if rc < r:
                a, c, jac, r = cand, cc, cjac, rc
                break
            step = step / 2.0
        else:
            # no decrease in 30 halvings: stop after the `it` steps taken
            return CenterResult(best_a, best_r, False, it)
        if r < best_r:
            best_a, best_r = a.copy(), r
    return CenterResult(best_a, best_r, best_r < tol, max_iter)


def _find_center_axis(u, moment, seed, tol, max_iter) -> CenterResult:
    # as a -> xi the barycenter tends to -u(-xi) xi times the positive
    # boundary_moment_constant, so for positive u the axis component is > 0
    # as r -> -1 and < 0 as r -> 1: [lo, hi] brackets a root without
    # evaluating either end, and each iterate's sign says which end it moves
    def component(r: float) -> tuple:
        c, jac = moment(np.array([r]), slope=True)
        return float(c[0]), float(jac[0, 0])

    lo, hi = -0.999999, 0.999999
    r = max(lo, min(hi, seed / (1.0 + abs(seed))))
    c, slope = component(r)
    for it in range(max_iter):
        if abs(c) < tol:
            return CenterResult(r * u.axis, abs(c), True, it)
        if c > 0:
            lo = r
        elif c < 0:
            hi = r
        cand = r - c / slope if slope != 0.0 else 0.5 * (lo + hi)
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        r, (c, slope) = cand, component(cand)
    return CenterResult(r * u.axis, abs(c), abs(c) < tol, max_iter)


def _mapped_axis_moments(u: SpectralFunction, m: int, disc: Discretization, radii) -> list:
    """Axis components of C(r xi) at each r of ``radii`` by the mapped points, in one synthesis.

    sigma_{r xi} acts on S^n as the dilation about xi of scale (1 - r)/(1 + r).
    """
    t, w = disc.rule.nodes, disc.rule.weights
    expo = (u.n - 2 * m) / (2.0 * u.n)
    lams = [(1.0 - r) / (1.0 + r) for r in radii]
    vals = synthesize(u, np.concatenate([axis_dilation_t_map(t, lam) for lam in lams]))
    return [
        float(w @ (axis_dilation_jacobian_t(t, lam, u.n) ** expo * v * t))
        for lam, v in zip(lams, np.split(vals, len(lams)))
    ]


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
