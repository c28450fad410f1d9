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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AxisMismatch, ConfSphereError
from .functional import neg_power_integral
from .geometry import BallPoint, MobiusMap, north_pole
from .spectral import SpectralFunction, _unit_circle_sum, discretization

#: the convergence threshold on |V(a)| and the budget of Newton steps of :func:`find_center`
CENTER_TOL = 1e-8
CENTER_MAX_ITER = 80


def _acting_on(u: SpectralFunction, phi: MobiusMap) -> MobiusMap:
    """phi, once it is known to be a map of the sphere of u; :class:`AxisMismatch` otherwise."""
    if phi.n != u.n:
        raise AxisMismatch(f"a Mobius map of S^{phi.n} does not act on S^{u.n}")
    return phi


def pullback(u: SpectralFunction, phi: MobiusMap, m: int) -> SpectralFunction:
    """Conformal pullback, re-projected onto the representation of u.

    It is taken on the nodes of the 2x rule, since the Jacobian weight is
    not band-limited; the energy invariance checks are the accuracy meter
    for this truncation.  The nodes lie on the unit circle, and the disk
    kernel of the representation of u maps each to its image w there and
    gives the conformal factor J of phi, whose n-th power is the Jacobian
    (``image`` of :class:`confsphere.spectral.Representation`; a zonal map
    must be a dilation about the axis or a ball point on it).
    J^{(n-2m)/2} u o phi is u summed at w (see
    :func:`confsphere.spectral.synthesize`).  A map so strong that the
    weight leaves the float range at some node raises
    :class:`ConfSphereError`: the ball point (1 - lam) / (1 + lam) of a
    dilation rounds to -1 near lam = 1e16 and to 1 near lam = 1e-16.
    """
    _acting_on(u, phi)
    disc = discretization(u.n, u.degree, oversample=2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w, factor = u.rep.image(u, phi, disc)
        values = factor ** ((u.n - 2 * m) / 2.0) * _unit_circle_sum(u, w)
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
    """The extremal family member about ``axis``; :class:`ConfSphereError` where it leaves the float range."""
    if not (0 < lam < np.inf and 0 < scale < np.inf):
        raise ValueError(f"extremal requires a positive finite lam and scale, got lam={lam!r}, scale={scale!r}")
    disc = discretization(n, degree, oversample=2)
    t, axis = disc.rep.axis_cosines(disc, north_pole(n) if axis is None else axis)
    disc.rep.axis(n, axis)  # a bad zonal axis is refused here, so the ValueError below is an overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            return disc.analyze(extremal_values(n, m, t, lam, scale), axis=axis)
        except ValueError as exc:  # non-finite coefficients
            raise ConfSphereError(f"the extremal of lam={lam!r}, scale={scale!r} leaves the float range") from exc


# ---------------------------------------------------------------------------
# barycenter and gauge centering
# ---------------------------------------------------------------------------


def barycenter(u: SpectralFunction, a: np.ndarray, m: int) -> np.ndarray:
    """V(a), the barycenter of the volume of the sigma_a pullback, in the unit ball of R^{n+1}.

    V(a) is the integral of sigma_{-a}(y) u^{-q}(y) dmu(y) over the
    integral of u^{-q}: the first moment of u_a^{-q} dmu, normalized.  It
    is summed over the nodes of the 4x discretization (``moment`` of
    :class:`confsphere.spectral.Representation`), whose error grows with |a|
    as the weight concentrates near -a/|a|.  |a| >= 1 raises ``ValueError``.
    """
    phi = _acting_on(u, BallPoint(center=a))
    terms, rep = neg_power_integral(u, m), u.rep
    disc = terms[9].disc
    return rep.vector(u, rep.moment(disc, disc.rule.weights * (terms[5] / terms[6]), rep.coordinate(u, phi.center)))


@dataclass(frozen=True)
class CenterResult:
    a: np.ndarray
    residual: float
    converged: bool
    iterations: int


def find_center(u: SpectralFunction, m: int) -> CenterResult:
    """Solve V(a) = 0 by damped Newton from a = 0 with the closed-form derivatives.

    u passes the positivity gate once, in :func:`~confsphere.functional.neg_power_integral`;
    V and its derivatives are sums over u^{-q} on the nodes, in node coordinates,
    with the weights taken once, and the representation of u holds the moment,
    the step and the coordinates.  On the axis xi of zonal u, a is the float
    r = a . xi and the step is -V / V'; on the circle a is complex and the step
    d solves V + A d + B conj(d) = 0 for the Wirtinger pair (A, B) of V; a zero
    derivative gives -V.  V lies in the unit ball, so :data:`CENTER_TOL` is
    scale-free.  Each step halves the Newton step until |V| decreases; if 30
    halvings find no decrease, or :data:`CENTER_MAX_ITER` steps run out, the
    last iterate is returned with ``converged=False``.
    """
    terms, rep = neg_power_integral(u, m), u.rep
    disc = terms[9].disc
    weighted = disc.rule.weights * (terms[5] / terms[6])
    x = rep.origin
    v, jac = rep.moment(disc, weighted, x, slope=True)
    res, steps = abs(v), 0
    while res >= CENTER_TOL and steps < CENTER_MAX_ITER:
        step = rep.newton_step(v, jac)
        for _ in range(30):
            cand = x + step
            r = abs(cand)
            cand = cand if r < 0.999999 else cand * (0.999999 / r)
            cv, cjac = rep.moment(disc, weighted, cand, slope=True)
            cres = abs(cv)
            if cres < res:
                break
            step = step / 2.0
        else:
            # no decrease in 30 halvings: stop after the steps taken
            break
        x, v, jac, res = cand, cv, cjac, cres
        steps += 1
    return CenterResult(rep.vector(u, x), res, res < CENTER_TOL, steps)


def recenter(u: SpectralFunction, m: int) -> tuple:
    """Pull u back by sigma_{a*} with V(a*) = 0; returns (function, CenterResult).

    When :func:`find_center` does not converge, u is returned as it is,
    not pulled back by the last iterate.
    """
    res = find_center(u, m)
    if not res.converged or float(res.a.dot(res.a)) == 0.0:
        return u, res
    return pullback(u, BallPoint(center=res.a), m), res
