"""Conformal pullback of spectral functions, extremals and barycenters.

The pullback of ``u`` under a Mobius map ``phi`` at operator order 2m is
``J_phi^{(n-2m)/(2n)} (u o phi)``; the order-2m energy is invariant under
it.  The extremal family is the pullback of constants.  The barycenter
``V(a)`` is the first moment of the volume ``u_a^{-q} dmu`` of the metric
``u_a^{4/(n-2m)} g_0``, u_a the pullback under the ball map ``sigma_a``.
It has exactly one zero in the open ball (Hersch 1970; Douady-Earle
1986), and driving it there fixes the Mobius gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AxisMismatch
from .functional import _positivity_gate, exponent_q
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
    SpectralFunction,
    _ball_moment,
    discretization,
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


def pullback(u: SpectralFunction, phi: MobiusMap, m: int) -> SpectralFunction:
    """Conformal pullback, re-projected onto the representation of u.

    The Jacobian weight is not band-limited, so the sampling rule is
    oversampled 2x before re-projection; the energy invariance checks are
    the accuracy meter for this truncation.
    """
    disc = discretization(u.n, u.degree, oversample=2)
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
) -> SpectralFunction:
    """The extremal family member as a spectral function about ``axis``."""
    if not (lam > 0 and scale > 0):
        raise ValueError("extremal requires lam > 0 and scale > 0")
    disc = discretization(n, degree, oversample=2)
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


def _volume(u: SpectralFunction, m: int) -> tuple:
    """(disc, u^{-q} / integral u^{-q}) on the nodes of the 4x discretization.

    u passes the positivity gate first.  Divided by its minimum, u^{-q}
    is at most one and one at a node, so its integral can neither
    overflow nor underflow.
    """
    disc = discretization(u.n, u.degree, oversample=4)
    vals = _positivity_gate(u.coeffs, disc)
    neg = (vals / float(vals.min())) ** (-exponent_q(u.n, m))
    return disc, neg / float(disc.rule.weights @ neg)


def barycenter(u: SpectralFunction, a: np.ndarray, m: int) -> np.ndarray:
    """V(a), the barycenter of the volume of the sigma_a pullback, in the unit ball of R^{n+1}.

    V(a) is the integral of sigma_{-a}(y) u^{-q}(y) dmu(y) over the
    integral of u^{-q}: the first moment of u_a^{-q} dmu, normalized.  It
    is summed over the nodes of the 4x discretization (see
    :func:`confsphere.spectral._ball_moment`), whose error grows with |a|
    as the weight concentrates near -a/|a|.
    """
    disc, neg = _volume(u, m)
    a = np.asarray(a, dtype=float)
    if u.n == 1:
        return _ball_moment(disc, neg, a)
    if float(a @ a) != 0.0:
        _zonal_dilation(u, BallPoint(center=a))  # AxisMismatch off the axis of u
    return float(_ball_moment(disc, neg, np.array([a @ u.axis]))[0]) * u.axis


@dataclass(frozen=True)
class CenterResult:
    a: np.ndarray
    residual: float
    converged: bool
    iterations: int


def _clip_ball(a: np.ndarray, limit: float = 0.999999) -> np.ndarray:
    r = float(np.linalg.norm(a))
    return a if r < limit else a * (limit / r)


def find_center(u: SpectralFunction, m: int, tol: float = 1e-8, max_iter: int = 80) -> CenterResult:
    """Solve V(a) = 0 by damped Newton from a = 0 with the closed-form Jacobian.

    u passes the positivity gate once; V and its derivative are then sums
    over u^{-q} on the nodes, in node coordinates: a itself on the circle
    and r = a . xi on the axis xi of zonal u.  V lies in the unit ball, so
    ``tol`` is scale-free.  Each step halves the Newton step until |V|
    decreases; if 30 halvings find no decrease, or the budget runs out,
    the last iterate is returned with ``converged=False`` and the number
    of steps taken.
    """
    disc, neg = _volume(u, m)
    x = np.zeros(2 if u.n == 1 else 1)
    v, jac = _ball_moment(disc, neg, x, slope=True)
    res = float(np.linalg.norm(v))
    steps = 0
    while res >= tol and steps < max_iter:
        try:
            step = np.linalg.solve(jac, -v)
        except np.linalg.LinAlgError:
            step = -v
        for _ in range(30):
            cand = _clip_ball(x + step)
            cv, cjac = _ball_moment(disc, neg, cand, slope=True)
            cres = float(np.linalg.norm(cv))
            if cres < res:
                break
            step = step / 2.0
        else:
            # no decrease in 30 halvings: stop after the steps taken
            break
        x, v, jac, res = cand, cv, cjac, cres
        steps += 1
    a = x if u.n == 1 else float(x[0]) * u.axis
    return CenterResult(a, res, res < tol, steps)


def recenter(u: SpectralFunction, m: int) -> tuple:
    """Pull u back by sigma_{a*} with V(a*) = 0; returns (function, CenterResult)."""
    res = find_center(u, m)
    if float(res.a @ res.a) == 0.0:
        return u, res
    return pullback(u, BallPoint(center=res.a), m), res
