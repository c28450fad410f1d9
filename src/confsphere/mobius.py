"""Conformal pullback of spectral functions, extremals and barycenters.

The pullback of ``u`` under a Mobius map ``phi`` at operator order 2m is
``J_phi^{(n-2m)/(2n)} (u o phi)``; the order-2m energy is invariant under
it.  The extremal family is the pullback of constants.  The barycenter
``V(a)`` is the first moment of the volume ``u_a^{-q} dmu`` of the metric
``u_a^{4/(n-2m)} g_0``, u_a the pullback under the ball map ``sigma_a``.
It has exactly one zero in the open ball (Hersch 1970; Douady-Earle
1986), and driving it there fixes the Mobius gauge.  On S^1 the ball is
the unit disk, every Mobius map is z -> e^{i th} (z - a) / (1 - conj(a) z),
and the gauge is held in complex scalars; on zonal S^n it is the float
r = a . xi on the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AxisMismatch, ConfSphereError
from .functional import neg_power_integral
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
    SpectralFunction,
    _ball_moment,
    _unit_circle_sum,
    discretization,
    synthesize,
)


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


def pullback(u: SpectralFunction, phi: MobiusMap, m: int) -> SpectralFunction:
    """Conformal pullback, re-projected onto the representation of u.

    It is taken on the nodes of the 2x rule, since the Jacobian weight is
    not band-limited; the energy invariance checks are the accuracy meter
    for this truncation.  A zonal dilation weighs u o phi by its Jacobian
    at the axis cosine of each node.  At the complex nodes z of the circle,
    a rotation or reflection is w = c1 z + c2 conj(z), unweighted; a ball
    point a is w = (z - a) / (1 - conj(a) z), weighed by |w'(z)|, and a
    dilation of scale lam about xi is the ball point xi (1 - lam) / (1 + lam).
    A map so strong that the weight leaves the float range at some node
    raises :class:`ConfSphereError`: (1 - lam) / (1 + lam) rounds to -1
    near lam = 1e16 on the circle, and the zonal Jacobian underflows near
    lam = 1e-200.
    """
    _acting_on(u, phi)
    disc = discretization(u.n, u.degree, oversample=2)
    z = disc.points
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if u.n != 1:
            phi = _zonal_dilation(u, phi)
            jac = axis_dilation_jacobian_t(z, phi.scale, u.n)
            values = jac ** ((u.n - 2 * m) / (2.0 * u.n)) * synthesize(u, axis_dilation_t_map(z, phi.scale))
        elif isinstance(phi, Rotation):
            (r00, r01), (r10, r11) = phi.matrix.tolist()
            w = complex(r00 + r11, r10 - r01) / 2.0 * z + complex(r00 - r11, r10 + r01) / 2.0 * z.conjugate()
            values = _unit_circle_sum(u, w)
        else:
            if isinstance(phi, AxisDilation):
                a = complex(*phi.axis.tolist()) * ((1.0 - phi.scale) / (1.0 + phi.scale))
            else:
                a = complex(*phi.center.tolist())
            den = 1.0 - a.conjugate() * z
            weight = (1.0 - (a.real * a.real + a.imag * a.imag)) / (den.real * den.real + den.imag * den.imag)
            values = weight ** ((1 - 2 * m) / 2.0) * _unit_circle_sum(u, (z - a) / den)
        try:
            return disc.analyze(values, axis=u.axis)
        except ValueError as exc:  # non-finite coefficients
            raise ConfSphereError("the pullback by this Mobius map leaves the float range") from exc


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
    if n == 1 and np.shape(axis) != (2,):
        raise AxisMismatch(f"an axis of S^1 has 2 entries, got shape {np.shape(axis)}")
    t = np.cos(disc.rule.nodes - math.atan2(axis[1], axis[0])) if n == 1 else disc.rule.nodes
    return disc.analyze(extremal_values(n, m, t, lam, scale), axis=None if n == 1 else axis)


# ---------------------------------------------------------------------------
# barycenter and gauge centering
# ---------------------------------------------------------------------------


def _volume(u: SpectralFunction, m: int) -> tuple:
    """(disc, u^{-q} / integral u^{-q}) on the nodes of the 4x discretization.

    Both come from :func:`~confsphere.functional.neg_power_integral`, which
    gates u once.  Divided by its minimum, u^{-q} is at most one and one at
    a node, so its integral can neither overflow nor underflow.
    """
    terms = neg_power_integral(u, m)
    return discretization(u.n, u.degree, oversample=4), terms[5] / terms[6]


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
        v = _ball_moment(disc, neg, complex(*phi.center.tolist()))
        return np.array([v.real, v.imag])
    _zonal_dilation(u, phi)  # AxisMismatch off the axis of u
    return _ball_moment(disc, neg, float(phi.center @ u.axis)) * u.axis


@dataclass(frozen=True)
class CenterResult:
    a: np.ndarray
    residual: float
    converged: bool
    iterations: int


def find_center(u: SpectralFunction, m: int, tol: float = 1e-8, max_iter: int = 80) -> CenterResult:
    """Solve V(a) = 0 by damped Newton from a = 0 with the closed-form derivatives.

    u passes the positivity gate once; V and its derivatives are then sums
    over u^{-q} on the nodes, in node coordinates.  On the axis xi of zonal
    u, a is the float r = a . xi and the step is -V / V'; on the circle a
    is complex and the step d solves V + A d + B conj(d) = 0 for the
    Wirtinger pair (A, B) of V; a zero derivative gives -V.  V lies in the
    unit ball, so ``tol`` is scale-free.  Each step halves the Newton step
    until |V| decreases; if 30 halvings find no decrease, or the budget
    runs out, the last iterate is returned with ``converged=False``.
    """
    disc, neg = _volume(u, m)
    zonal = u.n != 1
    x = 0.0 if zonal else 0j
    v, jac = _ball_moment(disc, neg, x, slope=True)
    res, steps = abs(v), 0
    while res >= tol and steps < max_iter:
        if zonal:
            step = -v / jac if jac else -v
        else:
            da, db = jac
            det = abs(da) ** 2 - abs(db) ** 2
            step = (db * v.conjugate() - da.conjugate() * v) / det if det else -v
        for _ in range(30):
            cand = x + step
            r = abs(cand)
            cand = cand if r < 0.999999 else cand * (0.999999 / r)
            cv, cjac = _ball_moment(disc, neg, cand, slope=True)
            cres = abs(cv)
            if cres < res:
                break
            step = step / 2.0
        else:
            # no decrease in 30 halvings: stop after the steps taken
            break
        x, v, jac, res = cand, cv, cjac, cres
        steps += 1
    return CenterResult(x * u.axis if zonal else np.array([x.real, x.imag]), res, res < tol, steps)


def recenter(u: SpectralFunction, m: int) -> tuple:
    """Pull u back by sigma_{a*} with V(a*) = 0; returns (function, CenterResult)."""
    res = find_center(u, m)
    if float(res.a @ res.a) == 0.0:
        return u, res
    return pullback(u, BallPoint(center=res.a), m), res
