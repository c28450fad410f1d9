"""Points on the round sphere and the Mobius maps that act on it.

S^n is the unit sphere in R^{n+1}.  A Mobius map is a dilation by
``scale`` in the stereographic chart at a pole ``xi``, a ball-based map
``sigma_a``, or a rotation; :func:`confsphere.mobius.pullback` acts with
them on the nodes of a rule.  The pointwise charts, axis maps and group
laws live in the tests, as the oracle for the pullback.
Everything here is plain double-precision numpy; exact arithmetic lives
in :mod:`confsphere.exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

UNIT_TOL = 1e-12


def sphere_measure(n: int) -> float:
    """Total measure of S^n, ``2 pi^{(n+1)/2} / Gamma((n+1)/2)``."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, ``pi^{n/2} / Gamma(n/2 + 1)``."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def north_pole(n: int) -> np.ndarray:
    """Reference pole, fixed to the first coordinate axis of R^{n+1}."""
    p = np.zeros(n + 1)
    p[0] = 1.0
    return p


@dataclass(frozen=True)
class AxisDilation:
    """sigma_{xi,lambda}: dilation by ``scale`` in the chart at ``axis``."""

    axis: np.ndarray
    scale: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        # "not <=" refuses a NaN norm too, as from a NaN or infinite entry
        with np.errstate(invalid="ignore", over="ignore"):
            norm = math.sqrt(float(axis.dot(axis)))
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise ValueError(f"dilation axis is not a finite unit vector within {UNIT_TOL}")
        object.__setattr__(self, "axis", axis)
        if not 0 < self.scale < math.inf:
            raise ValueError("dilation scale must be positive and finite")

    @property
    def n(self) -> int:
        return self.axis.size - 1


@dataclass(frozen=True)
class BallPoint:
    """sigma_a, the conformal self-map of the closed ball sending a to 0."""

    center: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", a)
        if not math.sqrt(float(a.dot(a))) < 1.0:
            raise ValueError("ball point must satisfy |a| < 1")

    @property
    def n(self) -> int:
        return self.center.size - 1


@dataclass(frozen=True)
class Rotation:
    """Orthogonal map of R^{n+1} restricted to the sphere."""

    matrix: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", r)
        # "not <=" refuses the NaN that a NaN or infinite entry leaves in r^T r
        with np.errstate(invalid="ignore", over="ignore"):
            defect = np.max(np.abs(r.T.dot(r) - np.eye(r.shape[0])))
        if not defect <= UNIT_TOL:
            raise ValueError(f"rotation matrix is not orthogonal within {UNIT_TOL}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1


MobiusMap = Union[AxisDilation, BallPoint, Rotation]
