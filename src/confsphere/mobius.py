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
    if np.shape(axis) != (2,):
        raise AxisMismatch(f"an axis of S^1 has 2 entries, got shape {np.shape(axis)}")
    return math.atan2(float(axis[1]), float(axis[0]))


def _dilation_angle_map(theta: np.ndarray, lam: float) -> np.ndarray:
    """Image angle of the dilation about the angle-zero pole on the circle."""
    half = theta / 2.0
    return np.mod(2.0 * np.arctan2(np.sin(half), lam * np.cos(half)), TWO_PI)


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


def _acting_on(u: SpectralFunction, phi: MobiusMap) -> MobiusMap:
    """phi, once it is known to be a map of the sphere of u; :class:`AxisMismatch` otherwise."""
    if phi.n != u.n:
        raise AxisMismatch(f"a Mobius map of S^{phi.n} does not act on S^{u.n}")
    return phi


def _pullback_values(u: SpectralFunction, phi: MobiusMap, m: int, points: np.ndarray) -> np.ndarray:
    """J_phi^{(n-2m)/(2n)} (u o phi) at ``points``: angles, or axis cosines for zonal u.

    A dilation weighs u o phi by its Jacobian at the axis cosine t of each
    point; on the circle a rotation, or sigma_0, carries no weight.
    """
    _acting_on(u, phi)
    if u.n != 1:
        phi = _zonal_dilation(u, phi)
        t, mapped = points, axis_dilation_t_map(points, phi.scale)
    elif isinstance(phi, Rotation):
        pts = np.column_stack([np.cos(points), np.sin(points)]) @ phi.matrix.T
        return synthesize(u, np.mod(np.arctan2(pts[:, 1], pts[:, 0]), TWO_PI))
    elif isinstance(phi, BallPoint) and float(phi.center @ phi.center) == 0.0:
        return synthesize(u, points)
    else:
        if isinstance(phi, BallPoint):
            phi = as_axis_dilation(phi)
        pole = _circle_axis_angle(phi.axis)
        psi = points - pole
        t, mapped = np.cos(psi), np.mod(pole + _dilation_angle_map(psi, phi.scale), TWO_PI)
    jac = axis_dilation_jacobian_t(t, phi.scale, u.n)
    return jac ** ((u.n - 2 * m) / (2.0 * u.n)) * synthesize(u, mapped)


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
    axis = north_pole(n) if axis is None else axis
    # the axis cosine of each node; zonal nodes are axis cosines.  A circle
    # function carries no axis: the bump is centred at the axis angle
    t = np.cos(disc.rule.nodes - _circle_axis_angle(axis)) if n == 1 else disc.rule.nodes
    return disc.analyze(extremal_values(n, m, t, lam, scale), axis=None if n == 1 else axis)


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
    as the weight concentrates near -a/|a|.  |a| >= 1 raises ``ValueError``.
    """
    phi = _acting_on(u, BallPoint(center=a))
    disc, neg = _volume(u, m)
    if u.n == 1:
        return _ball_moment(disc, neg, phi.center)
    _zonal_dilation(u, phi)  # AxisMismatch off the axis of u
    return _ball_moment(disc, neg, float(phi.center @ u.axis)) * u.axis


@dataclass(frozen=True)
class CenterResult:
    a: np.ndarray
    residual: float
    converged: bool
    iterations: int


def _clip_ball(a, norm, limit: float = 0.999999):
    r = norm(a)
    return a if r < limit else a * (limit / r)


def find_center(u: SpectralFunction, m: int, tol: float = 1e-8, max_iter: int = 80) -> CenterResult:
    """Solve V(a) = 0 by damped Newton from a = 0 with the closed-form Jacobian.

    u passes the positivity gate once; V and its derivative are then sums
    over u^{-q} on the nodes, in node coordinates: a itself on the circle
    and the float r = a . xi on the axis xi of zonal u, where the Newton
    step is -V / V'.  V lies in the unit ball, so ``tol`` is scale-free.
    Each step halves the Newton step until |V| decreases; if 30 halvings
    find no decrease, or the budget runs out, the last iterate is returned
    with ``converged=False`` and the number of steps taken.
    """
    disc, neg = _volume(u, m)
    zonal = u.n != 1
    size = abs if zonal else (lambda x: float(np.linalg.norm(x)))
    x = 0.0 if zonal else np.zeros(2)
    v, jac = _ball_moment(disc, neg, x, slope=True)
    res = size(v)
    steps = 0
    while res >= tol and steps < max_iter:
        if zonal:
            step = -v / jac if jac else -v
        else:
            try:
                step = np.linalg.solve(jac, -v)
            except np.linalg.LinAlgError:
                step = -v
        for _ in range(30):
            cand = _clip_ball(x + step, size)
            cv, cjac = _ball_moment(disc, neg, cand, slope=True)
            cres = size(cv)
            if cres < res:
                break
            step = step / 2.0
        else:
            # no decrease in 30 halvings: stop after the steps taken
            break
        x, v, jac, res = cand, cv, cjac, cres
        steps += 1
    return CenterResult(x * u.axis if zonal else x, res, res < tol, steps)


def recenter(u: SpectralFunction, m: int) -> tuple:
    """Pull u back by sigma_{a*} with V(a*) = 0; returns (function, CenterResult)."""
    res = find_center(u, m)
    if float(res.a @ res.a) == 0.0:
        return u, res
    return pullback(u, BallPoint(center=res.a), m), res
