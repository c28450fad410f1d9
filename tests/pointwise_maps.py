"""Stereographic charts and Mobius maps of S^n, applied point by point.

The package acts with the conformal group only through
:func:`confsphere.mobius.pullback`, on the nodes of a rule.  These maps
act on one sphere point at a time, in plain double-precision numpy, and
are the oracle the pullback is checked against.  The chart at a pole
``xi`` sends ``zeta = z' + t*xi`` (with ``z'`` orthogonal to ``xi``) to
``z'/(1-t)``.
"""

import math

import numpy as np

from confsphere.errors import AxisMismatch, ConfSphereError
from confsphere.geometry import UNIT_TOL, AxisDilation, BallPoint, MobiusMap, Rotation, north_pole

# angle-to-pole threshold below which the chart is refused
POLE_ANGLE_TOL = 1e-8


class PoleSingularity(ConfSphereError):
    """Stereographic projection evaluated too close to its pole."""


def _on_sphere(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if abs(float(np.linalg.norm(p)) - 1.0) > UNIT_TOL:
        raise ValueError(f"point is not on the sphere within {UNIT_TOL}: |p|={np.linalg.norm(p)}")
    return p


def south_pole(n: int) -> np.ndarray:
    return -north_pole(n)


def orthonormal_frame(xi: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to xi.

    Gram-Schmidt over the standard basis vectors, dropping the axis where
    xi has its largest component.  Columns of the returned matrix span
    ``xi^perp``; the construction is continuous away from the (measure
    zero) component switches.
    """
    xi = _on_sphere(xi)
    dim = xi.size
    drop = int(np.argmax(np.abs(xi)))
    cols = []
    for i in range(dim):
        if i == drop:
            continue
        v = np.zeros(dim)
        v[i] = 1.0
        v = v - (v @ xi) * xi
        for c in cols:
            v = v - (v @ c) * c
        cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


def stereographic_project(xi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Chart coordinates of ``zeta`` in the frame of ``xi^perp``.

    Raises :class:`PoleSingularity` when ``zeta`` lies within
    ``POLE_ANGLE_TOL`` radians of the pole ``xi``.
    """
    xi = _on_sphere(xi)
    zeta = _on_sphere(zeta)
    t = float(xi @ zeta)
    if 1.0 - t < 0.5 * POLE_ANGLE_TOL**2:
        raise PoleSingularity("stereographic projection evaluated at its pole")
    frame = orthonormal_frame(xi)
    return (frame.T @ zeta) / (1.0 - t)


def stereographic_inverse(xi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverse chart: x in xi^perp coordinates back to a sphere point."""
    xi = _on_sphere(xi)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    frame = orthonormal_frame(xi)
    r2 = float(x @ x)
    return (2.0 * (frame @ x) + (r2 - 1.0) * xi) / (r2 + 1.0)


def as_axis_dilation(phi: BallPoint) -> AxisDilation:
    """Sphere restriction of sigma_a as an axis dilation (a != 0).

    sigma_a restricted to S^n equals sigma_{a/|a|, (1-|a|)/(1+|a|)}.
    """
    a = phi.center
    r = math.sqrt(float(a.dot(a)))
    if r == 0.0:
        raise ValueError("sigma_0 is the identity and has no preferred axis")
    return AxisDilation(axis=a / r, scale=(1.0 - r) / (1.0 + r))


def axis_dilation_t_map(t: np.ndarray, lam: float) -> np.ndarray:
    """Axis component t' = sigma_{xi,lam}(zeta) . xi as a function of t = zeta . xi."""
    t = np.asarray(t, dtype=float)
    num = lam * lam * (1.0 + t) - (1.0 - t)
    den = lam * lam * (1.0 + t) + (1.0 - t)
    return num / den


def axis_dilation_jacobian_t(t: np.ndarray, lam: float, n: int) -> np.ndarray:
    """J_{sigma_{xi,lam}} as a function of t = zeta . xi.

    Equals (lam (1+|pi_xi|^2) / (1 + lam^2 |pi_xi|^2))^n written in the
    pole-safe form (2 lam / ((1-t) + lam^2 (1+t)))^n.
    """
    t = np.asarray(t, dtype=float)
    return (2.0 * lam / ((1.0 - t) + lam * lam * (1.0 + t))) ** n


def mobius_apply(phi: MobiusMap, zeta: np.ndarray) -> np.ndarray:
    """Apply a Mobius map to a sphere point.

    Axis dilations extend continuously through both poles; the formulas
    below are frame free.
    """
    zeta = _on_sphere(zeta)
    if isinstance(phi, Rotation):
        return phi.matrix @ zeta
    if isinstance(phi, BallPoint):
        a = phi.center
        r2a = float(a @ a)
        if r2a == 0.0:
            return zeta.copy()
        dot = float(a @ zeta)
        # |zeta|^2 = 1 on the sphere, so |z|^2 - 2 a.z + 1 = 2 - 2 a.z
        out = ((1.0 - r2a) * zeta - (2.0 - 2.0 * dot) * a) / (r2a - 2.0 * dot + 1.0)
        return out / np.linalg.norm(out)
    xi, lam = phi.axis, phi.scale
    t = float(xi @ zeta)
    if 1.0 - t < 1e-15:
        return xi.copy()
    zp = zeta - t * xi
    p = zp / (1.0 - t)  # pi_xi(zeta), as a vector of xi^perp
    p = lam * p
    r2 = float(p @ p)
    out = (2.0 * p + (r2 - 1.0) * xi) / (r2 + 1.0)
    return out / np.linalg.norm(out)


def mobius_jacobian(phi: MobiusMap, zeta: np.ndarray) -> float:
    """Volume-change factor J_phi(zeta), the n-th power of the conformal factor."""
    zeta = _on_sphere(zeta)
    if isinstance(phi, Rotation):
        return 1.0
    if isinstance(phi, BallPoint):
        if float(phi.center @ phi.center) == 0.0:
            return 1.0
        phi = as_axis_dilation(phi)
    t = float(phi.axis @ zeta)
    return axis_dilation_jacobian_t(np.array([t]), phi.scale, phi.n)[0]


def mobius_compose(phi1: AxisDilation, phi2: AxisDilation) -> AxisDilation:
    """Compose two dilations sharing an axis: scales multiply."""
    if not (isinstance(phi1, AxisDilation) and isinstance(phi2, AxisDilation)):
        raise AxisMismatch("composition is defined for axis dilations only")
    if float(np.max(np.abs(phi1.axis - phi2.axis))) > 1e-12:
        raise AxisMismatch("axis dilations do not share an axis")
    return AxisDilation(axis=phi1.axis, scale=phi1.scale * phi2.scale)


def mobius_inverse(phi: MobiusMap) -> MobiusMap:
    if isinstance(phi, AxisDilation):
        return AxisDilation(axis=phi.axis, scale=1.0 / phi.scale)
    if isinstance(phi, BallPoint):
        return BallPoint(center=-phi.center)
    return Rotation(matrix=phi.matrix.T)
