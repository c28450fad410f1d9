"""Spectral representations of functions on S^n.

Two representations cover the library's needs:

* ``n = 1``: full Fourier series on the circle in the orthonormal basis
  ``1/sqrt(2 pi)``, ``cos(k th)/sqrt(pi)``, ``sin(k th)/sqrt(pi)``, with the
  angle measured from the reference pole ``(1, 0)``.
* odd ``n >= 3``: zonal functions about an axis ``xi``, expanded in
  Gegenbauer polynomials ``C_alpha^{(n-1)/2}(t)`` of ``t = zeta . xi``,
  normalized to unit L^2(mu_{S^n}) norm.

Coefficients are packed in one array: ``[a_0, a_1, b_1, ..., a_L, b_L]``
for the circle and ``[c_0, ..., c_L]`` for zonal functions.  Both bases
are orthonormal, so Parseval holds with plain coefficient squares and
every diagonal operator acts coefficientwise.

What differs between the two is held in one place, the "representations"
section: :func:`representation` picks one of the two
:class:`Representation` instances ``CIRCLE`` and ``ZONAL`` by n (and
refuses even n and n < 3); the functions there that only pick a module
function (the rule, the basis rows, the axis of a new function) test n,
and every other function asks ``u.rep`` or ``disc.rep`` instead.
"""

from __future__ import annotations

import math
import mmap
import operator
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import AxisMismatch, InsufficientNodes, NonPositiveFunction
from .geometry import AxisDilation, Rotation, north_pole, sphere_measure

TWO_PI = 2.0 * math.pi

#: truncation defaults: acceptance runs / convergence studies
DEFAULT_DEGREE = 32
REFINED_DEGREE = 64

#: bytes the discretization cache may hold.  It fits the circle basis at
#: degree 512 with 4x oversampling (1025 x 4104 doubles, 33.6 MB); a single
#: discretization larger than this is built, used and not stored.
DISCRETIZATION_CACHE_BYTES = 64 * 2**20

#: the positivity gate passes c when its grid minimum exceeds this times its node maximum
POSITIVITY_FLOOR = 1e-6


def _cached_array(a: np.ndarray) -> np.ndarray:
    """Read-only version of ``a`` for a cache.

    Cached arrays live as long as the process.  A small one taken from the
    malloc heap in the middle of a run pins the top of the heap, so the
    transients freed below it stay resident and raise the peak memory; it
    is copied into an anonymous memory map of its own.  An array of 4 MiB
    or more stays where it is, since a copy would double its peak.
    """
    if a.nbytes < 4 * 2**20:
        out = np.frombuffer(mmap.mmap(-1, max(a.nbytes, 1)), dtype=a.dtype, count=a.size)
        out = out.reshape(a.shape)
        out[...] = a
        a = out
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating over S^n.

    For ``n = 1`` the nodes are angles on a uniform midpoint grid with equal
    weights ``2 pi / K``.  For odd ``n >= 3`` they are the axis cosines
    ``t = cos th`` of a uniform grid in the polar angle th, both poles
    included (:func:`zonal_quadrature`), and the weights sum to ``mu(S^n)``.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size


def circle_quadrature(num_nodes: int) -> QuadratureRule:
    theta = (np.arange(num_nodes) + 0.5) * TWO_PI / num_nodes
    weights = np.full(num_nodes, TWO_PI / num_nodes)
    return QuadratureRule(n=1, nodes=theta, weights=weights)


def roots_jacobi(num_nodes: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the weight ``(1 - t^2)^a`` on (-1, 1), ``a > -1``.

    Nothing in the package calls it; it stays while the benchmark's tracer wraps it by name.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Gegenbauer recurrence (zero diagonal), and the weights are
    ``mu_0 v_0^2`` with ``mu_0`` the integral of the weight and ``v_0`` the
    first component of each unit eigenvector.  The result is symmetrized,
    so nodes come in exact +-pairs with equal weights.
    """
    if num_nodes < 1 or not a > -1.0:
        raise ValueError("require num_nodes >= 1 and a > -1")
    # squared off-diagonal b_k^2 = k (k + 2a) / ((2k + 2a)^2 - 1); at k = 1
    # the factor 1 + 2a cancels, which keeps a = -1/2 (Chebyshev) finite
    k = np.arange(2, num_nodes, dtype=float)
    off_sq = k * (k + 2.0 * a) / ((2.0 * k + 2.0 * a) ** 2 - 1.0)
    off = np.sqrt(np.concatenate([[1.0 / (2.0 * a + 3.0)], off_sq])[: num_nodes - 1])
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (2.0 * a + 1.0) * math.gamma(a + 1.0) ** 2 / math.gamma(2.0 * a + 2.0)
    w = mu0 * v[0] ** 2
    return (t - t[::-1]) / 2.0, (w + w[::-1]) / 2.0


def zonal_quadrature(n: int, num_nodes: int) -> QuadratureRule:
    """The trapezoid rule in the polar angle: nodes t_i = cos(i pi / M), i = 0..M, with M = ``num_nodes`` - 1.

    For odd n the zonal measure (1 - t^2)^{(n-2)/2} dt is sin^{n-1}(th) dth, a
    cosine polynomial of degree n - 1 times dth, so the weights (pi / M)
    sin^{n-1}(th_i) |S^{n-1}| (halved at the ends, where they vanish)
    integrate the product of two degree-L zonal functions exactly once
    M > L + (n - 1)/2 (Waldvogel, BIT 46, 2006).  t runs from 1 to -1.
    """
    if n % 2 == 0 or n < 3 or num_nodes < 2:
        raise ValueError(f"the angle grid needs odd n >= 3 and at least 2 nodes, got n={n}, {num_nodes} nodes")
    m = num_nodes - 1
    i = np.arange(num_nodes)
    # cos th_i as sin((M - 2i) pi / 2M) is odd under i -> M - i and exactly
    # +-1 at the poles; sin th_i, from the nearer pole, is exactly 0 there
    t = np.sin((m - 2 * i) * (math.pi / (2 * m)))
    s = np.sin(np.minimum(i, m - i) * (math.pi / m))
    return QuadratureRule(n=n, nodes=t, weights=(math.pi / m * sphere_measure(n - 1)) * s ** (n - 1))


def integrate(values: np.ndarray, rule: QuadratureRule) -> float:
    """Plain weighted sum; implements the surface integral over S^n."""
    return float(rule.weights.dot(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------


def circle_basis_matrix(degree: int, theta: np.ndarray) -> np.ndarray:
    """Rows of the orthonormal Fourier basis."""
    theta = np.asarray(theta, dtype=float)
    rows = np.zeros((2 * degree + 1, theta.size))
    rows[0] = 1.0 / math.sqrt(TWO_PI)
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for k in range(1, degree + 1):
        rows[2 * k - 1] = inv_sqrt_pi * np.cos(k * theta)
        rows[2 * k] = inv_sqrt_pi * np.sin(k * theta)
    return rows


@lru_cache(maxsize=64)
def _zonal_normalization(n: int, degree: int) -> np.ndarray:
    """Factors taking C_alpha^{(n-1)/2} to unit L^2(mu_{S^n}) norm, alpha = 0..degree.

    With nu = (n-1)/2, the squared norm h_alpha of C_alpha^nu in the weight
    (1 - t^2)^{nu - 1/2} satisfies h_{a+1} / h_a = (a + 2nu)(a + nu) / ((a + 1)(a + nu + 1)),
    whose two products are exact integers, and |S^{n-1}| h_0 = mu(S^n):
    a running product of the ratios, one rounding each.
    """
    nu = (n - 1) // 2
    a = np.arange(degree, dtype=float)
    h = np.ones(degree + 1)
    np.cumprod((a + 2 * nu) * (a + nu) / ((a + 1.0) * (a + nu + 1)), out=h[1:])
    return _cached_array(1.0 / np.sqrt(sphere_measure(n) * h))


def zonal_basis_matrix(n: int, degree: int, t: np.ndarray) -> np.ndarray:
    """Rows Z_alpha(t) of the unit-L^2(mu_{S^n}) zonal Gegenbauer basis."""
    nu = (n - 1) / 2.0
    t = np.asarray(t, dtype=float)
    raw = np.zeros((degree + 1, t.size))
    raw[0] = 1.0
    if degree >= 1:
        raw[1] = 2.0 * nu * t
    for a in range(1, degree):
        raw[a + 1] = (2.0 * (a + nu) * t * raw[a] - (a + 2.0 * nu - 1.0) * raw[a - 1]) / (a + 1.0)
    raw *= _zonal_normalization(n, degree)[:, None]
    return raw


@lru_cache(maxsize=64)
def _chebyshev_matrix(n: int, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the zonal basis: Z_alpha = sum_j M[j, alpha] T_j.

    With nu = (n-1)/2 and g_k = (nu)_k / k!, C_alpha^nu(cos th) is the sum
    over k = 0..alpha of g_k g_{alpha-k} cos((alpha - 2k) th).  Every term
    is positive, so the coefficients carry no cancellation.
    """
    nu = (n - 1) // 2
    g = np.array([float(math.comb(k + nu - 1, k)) for k in range(degree + 1)])
    out = np.zeros((degree + 1, degree + 1))
    for a in range(degree + 1):
        # T_j with j = a - 2k > 0 collects the terms k and a - k
        half = a // 2 + 1
        col = 2.0 * g[:half] * g[a::-1][:half]
        if a % 2 == 0:
            col[-1] /= 2.0
        out[a::-2, a] = col
    return _cached_array(out * _zonal_normalization(n, degree))


def packed_degrees(n: int, degree: int) -> np.ndarray:
    """Spherical-harmonic degree of each packed coefficient: degree k fills ``per_degree`` slots after the first."""
    if degree < 0:
        raise ValueError(f"degree {degree} is negative: a function has degree 0 or more")
    per = representation(n).per_degree
    return np.arange(per - 1, per * (degree + 1)) // per


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Representation:
    """What differs between the circle and the zonal representation; :func:`representation` picks one by n.

    ``kind`` is its JSON name.  ``per_degree`` counts the coefficients of
    each harmonic degree, 2 on the circle (a_k, b_k) and 1 zonal: degree L
    packs per_degree L + 1 of them, and its rule takes per_degree (L + 1)
    nodes per unit of oversampling (:func:`rule_size`).  ``rule_name`` names
    the quadrature, ``pole`` is the point coordinate of the reference pole
    (angle 0, axis cosine 1), and ``origin`` the center of the ball in
    moment coordinates.  The methods of the two instances are the pairs that
    share no formula.  Where the two sides differ only in which module
    function they call (the rule, the basis rows, the axis of a new
    function), a function of this section branches once instead; every
    module function is called by name, so that a profiler which rebinds
    those names sees the calls.

    The nodes of both rules lie on the unit circle (``disc.points``), all
    around it or, zonal, on its upper half from th = 0 to pi.  So the disk
    kernels :meth:`moment` and :meth:`image` serve both: a zonal map is the
    real ball point r = a . xi, and the zonal moment is the disk's real part.
    """

    kind: str
    per_degree: int
    rule_name: str
    pole: float
    origin: complex | float

    def moment(self, disc: Discretization, f: np.ndarray, a, slope: bool = False):
        """The first moment V(a) = sum_i f_i sigma_{-a}(z_i), sigma_{-a}(z) = (z + a) / (1 + conj(a) z).

        f_i = w_i g_i are the rule weights times the values of a function g
        on the nodes z_i of ``disc``.  With g = u^{-q} it is the first moment
        of the volume of the sigma_a pullback of u, since u_a^{-q} dmu =
        sigma_a^*(u^{-q} dmu).  a and V are in the coordinates of
        :meth:`coordinate` and :meth:`along`; ``slope`` adds the Wirtinger
        pair (dV/da, dV/d conj(a)) of the disk sum.
        """
        y = disc.points
        if a == 0:
            den, z = 1.0, y
        else:
            den = 1.0 + a.conjugate() * y
            f, z = f / den, y + a
        v = self.along(f.dot(z))
        if not slope:
            return v
        return v, (complex(f.sum()), -complex((f / den).dot(y * z)))

    def image(self, u: SpectralFunction, phi, disc: Discretization) -> tuple:
        """(w, J): the image w on the unit circle of each node under the Mobius map phi, and its conformal factor J there.

        A rotation or reflection is :meth:`rotate`, with J = 1; a ball point
        a is w = (z - a) / (1 - conj(a) z) with J = |w'(z)| = (1 - |a|^2) /
        |1 - conj(a) z|^2, and a dilation of scale lam about xi is the ball
        point xi (1 - lam) / (1 + lam), in the coordinate of :meth:`coordinate`.
        The Jacobian of phi on S^n is J^n.
        """
        z = disc.points
        if isinstance(phi, Rotation):
            return self.rotate(phi, z), 1.0
        if isinstance(phi, AxisDilation):
            a = self.coordinate(u, phi.axis) * ((1.0 - phi.scale) / (1.0 + phi.scale))
        else:
            a = self.coordinate(u, phi.center)
        den = 1.0 - a.conjugate() * z
        weight = (1.0 - (a.real * a.real + a.imag * a.imag)) / (den.real * den.real + den.imag * den.imag)
        return (z - a) / den, weight


class _Circle(Representation):
    """Points are angles th, at z = exp(i th) on the unit circle; moment coordinates are complex, in the unit disk."""

    def unit_points(self, theta, deriv: int) -> np.ndarray:
        return np.exp(1j * np.asarray(theta, dtype=float).ravel())

    def unit_coeffs(self, u: SpectralFunction, deriv: int) -> np.ndarray:
        c = u.coeffs
        d = np.empty(u.degree + 1, dtype=complex)
        d[0] = c[0] * (1.0 / math.sqrt(TWO_PI))
        d[1:] = (c[1::2] - 1j * c[2::2]) * (1.0 / math.sqrt(math.pi))
        if deriv != 0:
            d *= (1j * np.arange(u.degree + 1)) ** deriv
        return d

    def axis(self, n: int, axis) -> None:
        if axis is not None:
            raise ValueError("circle functions carry no zonal axis")

    def along(self, v) -> complex:
        return complex(v)

    def newton_step(self, v: complex, jac: tuple) -> complex:
        """d solving V + A d + B conj(d) = 0 for the Wirtinger pair (A, B) of V; -V if there is none."""
        da, db = jac
        det = abs(da) ** 2 - abs(db) ** 2
        return (db * v.conjugate() - da.conjugate() * v) / det if det else -v

    def coordinate(self, u: SpectralFunction, a: np.ndarray) -> complex:
        return complex(*a.tolist())

    def vector(self, u: SpectralFunction, x: complex) -> np.ndarray:
        return np.array([x.real, x.imag])

    def rotate(self, phi: Rotation, z: np.ndarray) -> np.ndarray:
        """w = c1 z + c2 conj(z) for the rotation or reflection phi."""
        (r00, r01), (r10, r11) = phi.matrix.tolist()
        return complex(r00 + r11, r10 - r01) / 2.0 * z + complex(r00 - r11, r10 + r01) / 2.0 * z.conjugate()

    def axis_cosines(self, disc: Discretization, axis) -> tuple:
        """(the cosine of each node's angle to ``axis``, None): a circle function carries no axis."""
        if np.shape(axis) != (2,):
            raise AxisMismatch(f"an axis of S^1 has 2 entries, got shape {np.shape(axis)}")
        return np.cos(disc.rule.nodes - math.atan2(axis[1], axis[0])), None


class _Zonal(Representation):
    """Points are axis cosines t, at z = t + i sqrt(1 - t^2) on the unit circle; moment coordinates are floats along the axis."""

    def unit_points(self, t, deriv: int) -> np.ndarray:
        if deriv != 0:
            raise ValueError("derivative synthesis is only provided on the circle")
        x = np.asarray(t, dtype=float).ravel()
        # (1 - t)(1 + t) keeps its relative accuracy near the poles
        return x + 1j * np.sqrt(np.maximum((1.0 - x) * (1.0 + x), 0.0))

    def unit_coeffs(self, u: SpectralFunction, deriv: int) -> np.ndarray:
        return _chebyshev_matrix(u.n, u.degree).dot(u.coeffs)

    def axis(self, n: int, axis) -> np.ndarray:
        """``axis`` normalized; one whose squared norm is not a normal float is divided by its largest entry first."""
        if axis is None:
            raise ValueError("zonal functions require an axis")
        axis = np.asarray(axis, dtype=float)
        if axis.shape != (n + 1,):
            raise AxisMismatch(f"a zonal axis on S^{n} has {n + 1} entries, got shape {axis.shape}")
        with np.errstate(over="ignore"):  # an overflowing sum is caught below, like a NaN
            norm_sq = float(axis.dot(axis))
        if not sys.float_info.min <= norm_sq < math.inf:  # NaN too
            if not np.isfinite(axis).all():
                raise ValueError(f"a zonal axis must be finite, got {axis.tolist()}")
            big = float(np.abs(axis).max())
            if big == 0.0:
                raise ValueError("cannot normalize the zero vector")
            axis = axis / big
            norm_sq = float(axis.dot(axis))
        # an axis of norm exactly 1.0 is kept as given: v / 1.0 is v
        r = math.sqrt(norm_sq)
        return axis if r == 1.0 else axis / r

    def along(self, v) -> float:
        """The axis component of a disk moment: its real part, as sigma_{-r} maps t to (t + rho) / (1 + rho t), rho = 2r / (1 + r^2)."""
        return float(v.real)

    def newton_step(self, v: float, jac: tuple) -> float:
        """-V / V' with V' = Re(A + B), the derivative along the real axis from the Wirtinger pair (A, B); -V if it is 0."""
        slope = (jac[0] + jac[1]).real
        return -v / slope if slope else -v

    def coordinate(self, u: SpectralFunction, a: np.ndarray) -> float:
        """r = a . xi on the axis xi of u; :class:`AxisMismatch` off it."""
        r = float(a.dot(u.axis))
        if not abs(r) >= (1.0 - 1e-12) * math.sqrt(float(a.dot(a))):
            raise AxisMismatch("Mobius map does not share the zonal axis")
        return r

    def vector(self, u: SpectralFunction, x: float) -> np.ndarray:
        return x * u.axis

    def rotate(self, phi: Rotation, z: np.ndarray) -> np.ndarray:
        raise AxisMismatch("zonal pullback supports axis dilations and ball points on the axis only")

    def axis_cosines(self, disc: Discretization, axis) -> tuple:
        return disc.rule.nodes, axis


CIRCLE = _Circle("circle", 2, "circle grid", 0.0, 0j)
ZONAL = _Zonal("zonal", 1, "polar angle grid", 1.0, 0.0)


def representation(n: int) -> Representation:
    """The representation of functions on S^n: the circle for n = 1, zonal for odd n >= 3, else ``ValueError``."""
    if n == 1:
        return CIRCLE
    if n % 2 == 0 or n < 3:
        raise ValueError("zonal representation requires odd n >= 3")
    return ZONAL


def rule_size(n: int, degree: int, oversample: int = 1) -> int:
    """Nodes of the rule of degree-``degree`` functions on S^n: 2 oversample (L + 1) on the circle.

    The zonal grid takes M = oversample (L + 1) + (n - 1)/2 intervals, M + 1
    nodes, as its weight adds (n - 1)/2 to the degree: M > L + (n - 1)/2.
    """
    size = oversample * representation(n).per_degree * (degree + 1)
    return size if n == 1 else size + (n + 1) // 2


def quadrature_for_degree(n: int, degree: int, oversample: int = 2) -> QuadratureRule:
    """Rule large enough to analyze degree-``degree`` functions, oversampled (:func:`rule_size`)."""
    size = rule_size(n, degree, oversample)
    return circle_quadrature(size) if n == 1 else zonal_quadrature(n, size)


def basis_matrix(n: int, degree: int, points: np.ndarray) -> np.ndarray:
    """Packed basis of degree-``degree`` functions on S^n at ``points`` (angles, or axis cosines), one row per coefficient."""
    return circle_basis_matrix(degree, points) if n == 1 else zonal_basis_matrix(n, degree, points)


def _new_axis(n: int, axis: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The axis of a new function on S^n: ``axis`` or the north pole; the circle takes none."""
    if axis is None:
        return None if n == 1 else north_pole(n)
    if n == 1 or np.shape(axis) != (n + 1,):
        want = "no axis" if n == 1 else f"an axis of {n + 1} entries"
        raise AxisMismatch(f"a function on S^{n} takes {want}, got shape {np.shape(axis)}")
    return axis


# ---------------------------------------------------------------------------
# the spectral function type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralFunction:
    """A function on S^n held as orthonormal spectral coefficients.

    On the circle (n = 1) it is a full Fourier series, on odd n >= 3 zonal
    about ``axis``; ``rep`` is the :class:`Representation` of S^n.
    Instances are immutable and safe to share.
    """

    n: int
    coeffs: np.ndarray
    axis: Optional[np.ndarray] = field(default=None)
    rep: Representation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError(f"spectral coefficients form one flat array, got shape {c.shape}")
        if c.size == 0:
            raise ValueError("spectral coefficients hold at least the degree-0 one, got none")
        if not np.isfinite(c).all():
            raise ValueError("spectral coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        rep = representation(self.n)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "axis", rep.axis(self.n, self.axis))
        if (c.size - 1) % rep.per_degree:  # only the circle packs two per degree
            raise ValueError("circle coefficients pack as [a0, a1, b1, ...]")

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // self.rep.per_degree

    def norm_sq(self) -> float:
        """L^2(mu) norm squared; equals the integral of u^2 by Parseval."""
        return float(self.coeffs.dot(self.coeffs))

    def scaled(self, factor: float) -> "SpectralFunction":
        return SpectralFunction(self.n, self.coeffs * factor, self.axis)

    def __add__(self, other: "SpectralFunction") -> "SpectralFunction":
        a, b = _aligned(self, other)
        return SpectralFunction(self.n, a + b, self.axis)

    def __sub__(self, other: "SpectralFunction") -> "SpectralFunction":
        a, b = _aligned(self, other)
        return SpectralFunction(self.n, a - b, self.axis)


def _aligned(u: SpectralFunction, v: SpectralFunction):
    if u.n != v.n:
        raise ValueError("dimension mismatch")
    if u.axis is not None and float(np.abs(u.axis - v.axis).max()) > 1e-12:
        raise AxisMismatch("zonal functions have different axes")
    size = max(u.coeffs.size, v.coeffs.size)
    a = np.zeros(size)
    b = np.zeros(size)
    a[: u.coeffs.size] = u.coeffs
    b[: v.coeffs.size] = v.coeffs
    return a, b


def synthesize(u: SpectralFunction, points: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Values of u, or of its ``deriv``-th theta-derivative, at ``points`` without a basis matrix.

    ``points`` are angles for ``n = 1`` and axis cosines ``t`` for zonal
    functions; one value per point, in the order given.  ``deriv``, an integer
    >= 0 (circle only, else ``ValueError``), evaluates the theta-derivative of
    that order, exact for the truncated series.  Values on the nodes of a
    cached discretization come from its ``scan`` instead.

    Both representations are a real part Re sum_j d_j z^j on the unit
    circle: on the circle z = exp(i th) and d_k = (a_k - i b_k)/sqrt(pi);
    for zonal u, z = t + i sqrt(1 - t^2) and d holds the Chebyshev
    coefficients of u, since T_j(t) = Re z^j.  On the circle d^k/dth^k z^j
    = (i j)^k z^j, so a derivative only rescales d.

    The sum is taken in blocks (Paterson-Stockmeyer): with b = isqrt(len(d))
    the powers z^0..z^{b-1} form one matrix, a single product with d
    reshaped to (k, b) gives the k block polynomials, and Horner's rule in
    w = z^b adds the blocks.  That is about 2 sqrt(L) array operations
    instead of 2 L.
    """
    try:
        if operator.index(deriv) < 0:
            raise ValueError("the derivative order must be >= 0")
    except TypeError:
        raise ValueError(f"the derivative order must be an integer, got {deriv!r}") from None
    return _unit_circle_sum(u, u.rep.unit_points(points, deriv), deriv)


def _unit_circle_sum(u: SpectralFunction, z: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Re sum_j d_j z^j at the complex points z of :func:`synthesize`, summed in blocks."""
    d = u.rep.unit_coeffs(u, deriv)
    # k blocks of b coefficients, the last one padded with zeros
    b = math.isqrt(d.size)
    k = -(-d.size // b)
    padded = np.zeros(k * b, dtype=complex)
    padded[: d.size] = d
    powers = np.empty((b, z.size), dtype=complex)
    powers[0] = 1.0
    for j in range(1, b):
        np.multiply(powers[j - 1], z, out=powers[j])
    w = powers[-1] * z
    blocks = padded.reshape(k, b).dot(powers)
    acc = blocks[-1]
    for row in blocks[-2::-1]:
        acc *= w
        acc += row
    return acc.real


def analyze(
    values: np.ndarray,
    rule: QuadratureRule,
    degree: int,
    axis: Optional[np.ndarray] = None,
    basis: Optional[np.ndarray] = None,
) -> SpectralFunction:
    """Orthogonal projection of nodal values onto degrees <= ``degree``.

    Exact (to rounding) on band-limited input when the rule integrates the
    product of two degree-``degree`` functions exactly, that is when it has
    :func:`rule_size` nodes or more; :class:`InsufficientNodes` otherwise.
    ``basis`` is the degree-``degree`` basis on the rule nodes, built here if absent.
    """
    values = np.asarray(values, dtype=float)
    if rule.size < rule_size(rule.n, degree):
        name = representation(rule.n).rule_name
        raise InsufficientNodes(f"{name} of {rule.size} nodes cannot resolve degree {degree}")
    if basis is None:
        basis = basis_matrix(rule.n, degree, rule.nodes)
    return SpectralFunction(rule.n, basis.dot(rule.weights * values), _new_axis(rule.n, axis))


# ---------------------------------------------------------------------------
# discretizations and their cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Discretization:
    """A quadrature rule with the transforms of degree-``degree`` functions on it.

    :func:`discretization` builds one per ``(n, degree, oversample)`` and
    caches it: ``basis`` is the packed basis on the rule nodes, ``basis_t``
    its transposed view, and ``points`` the nodes z = exp(i th) on the unit
    circle, the unit disk's boundary (``rep.unit_points`` of the rule
    nodes): all around it on the circle, on its upper half on a zonal rule,
    whose poles are nodes.  The positivity grid is the rule nodes:
    :meth:`scan` reads it and :meth:`gate` decides on it.  Every cached
    array is read-only.  ``evaluators`` holds the evaluators of the functional on
    a cached 4x discretization, by order m (see
    :func:`confsphere.functional.evaluator`); the cache empties it when it
    drops the discretization, and it is None on one the cache does not hold.
    ``rep`` is the :class:`Representation` of the rule's sphere, looked up
    once here: the moments and the Mobius images are its methods.
    """

    rule: QuadratureRule
    degree: int
    basis: np.ndarray
    basis_t: np.ndarray
    points: np.ndarray
    evaluators: Optional[dict] = None
    rep: Representation = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rep", representation(self.rule.n))

    @property
    def nbytes(self) -> int:
        # basis_t is a view of basis
        return sum(a.nbytes for a in (self.rule.nodes, self.rule.weights, self.basis, self.points))

    def analyze(self, values: np.ndarray, axis: Optional[np.ndarray] = None) -> SpectralFunction:
        """Projection of values on the rule nodes onto degrees <= ``degree``."""
        return analyze(values, self.rule, self.degree, axis, basis=self.basis)

    def scan(self, c: np.ndarray) -> tuple:
        """(values, minimum, maximum) of the coefficients ``c`` on the positivity grid, the rule nodes."""
        vals = self.basis_t.dot(c)
        return vals, float(vals.min()), float(vals.max())

    def gate(self, c: np.ndarray, refuse: bool = True) -> Optional[tuple]:
        """The positivity gate: :meth:`scan` of the coefficients ``c`` once they pass.

        c passes when its grid minimum is a normal float (1 / minimum is finite)
        above :data:`POSITIVITY_FLOOR` times its node maximum, so the gate decides
        c u as u.  Else :class:`NonPositiveFunction`, or None if not ``refuse``.
        """
        scanned = self.scan(c)
        _, low, high = scanned
        if low > POSITIVITY_FLOOR * high and low >= sys.float_info.min:
            return scanned
        if refuse:
            why = f"above {POSITIVITY_FLOOR:g} times the node maximum {high:.3e}"
            why = "a normal float" if low > POSITIVITY_FLOOR * high else why
            raise NonPositiveFunction(f"function fails the positivity floor: grid minimum {low:.3e} is not {why}")
        return None


def _build_discretization(n: int, degree: int, oversample: int) -> Discretization:
    rule = quadrature_for_degree(n, degree, oversample=oversample)
    rule = QuadratureRule(n, _cached_array(rule.nodes), _cached_array(rule.weights))
    basis = _cached_array(basis_matrix(n, degree, rule.nodes))
    return Discretization(rule, degree, basis, basis.T, _cached_array(representation(n).unit_points(rule.nodes, 0)))


_cache: "OrderedDict[tuple, Discretization]" = OrderedDict()
_cache_lock = threading.Lock()


def discretization(n: int, degree: int, oversample: int = 2) -> Discretization:
    """The discretization of degree-``degree`` functions on S^n, built once.

    Rules are canonical in their size, so the cache is keyed on the three
    integers.  It keeps the most recently used entries within
    :data:`DISCRETIZATION_CACHE_BYTES`.  A discretization it drops takes
    its evaluators along, as they hold it (no reference cycle outlives
    the drop).
    """
    key = (int(n), int(degree), int(oversample))
    with _cache_lock:
        disc = _cache.get(key)
        if disc is not None:
            _cache.move_to_end(key)
            return disc
    disc = _build_discretization(*key)
    if disc.nbytes <= DISCRETIZATION_CACHE_BYTES:
        disc = replace(disc, evaluators={})
        with _cache_lock:
            _cache[key] = disc
            held = sum(d.nbytes for d in _cache.values())
            while held > DISCRETIZATION_CACHE_BYTES:
                dropped = _cache.popitem(last=False)[1]
                dropped.evaluators.clear()
                held -= dropped.nbytes
    return disc


def clear_caches() -> None:
    """Drop every cached discretization with its evaluators, every zonal normalization and Chebyshev matrix."""
    with _cache_lock:
        for disc in _cache.values():
            disc.evaluators.clear()
        _cache.clear()
    _zonal_normalization.cache_clear()
    _chebyshev_matrix.cache_clear()


def min_on_grid(u: SpectralFunction) -> float:
    """Minimum of u over the nodes of its 4x discretization, the positivity grid; the positivity surrogate.

    The zonal grid includes both poles, so a dip exactly at a pole is seen.
    """
    return discretization(u.n, u.degree, oversample=4).scan(u.coeffs)[1]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def constant_function(
    n: int, value: float, degree: int = DEFAULT_DEGREE, axis: Optional[np.ndarray] = None
) -> SpectralFunction:
    coeffs = np.zeros(packed_degrees(n, degree).size)
    coeffs[0] = value * math.sqrt(sphere_measure(n))
    return SpectralFunction(n, coeffs, _new_axis(n, axis))


def harmonic_basis_function(
    n: int,
    harmonic_degree: int,
    degree: int = DEFAULT_DEGREE,
    axis: Optional[np.ndarray] = None,
    component: str = "cos",
) -> SpectralFunction:
    """Unit-norm basis element of one spherical-harmonic degree; ``component`` matters on the circle."""
    degs = packed_degrees(n, degree)
    if not 0 <= harmonic_degree <= degree:
        raise ValueError(f"harmonic degree {harmonic_degree} lies outside 0..{degree}")
    if component not in ("cos", "sin"):
        raise ValueError(f"component must be 'cos' or 'sin', got {component!r}")
    slots = np.flatnonzero(degs == harmonic_degree)
    coeffs = np.zeros(degs.size)
    coeffs[slots[-1] if component == "sin" else slots[0]] = 1.0
    return SpectralFunction(n, coeffs, _new_axis(n, axis))


def random_band_limited(
    n: int,
    degree: int,
    max_degree: int,
    rng: np.random.Generator,
    decay: float = 0.0,
    axis: Optional[np.ndarray] = None,
) -> SpectralFunction:
    """Zero-mean random function supported on degrees 1..max_degree."""
    degs = packed_degrees(n, degree)
    coeffs = np.zeros(degs.size)
    idx = (degs >= 1) & (degs <= max_degree)
    coeffs[idx] = rng.standard_normal(int(idx.sum())) * np.exp(-decay * degs[idx])
    return SpectralFunction(n, coeffs, _new_axis(n, axis))


def random_positive_function(
    n: int,
    degree: int,
    max_degree: int,
    rng: np.random.Generator,
    amplitude: float = 0.45,
    axis: Optional[np.ndarray] = None,
) -> SpectralFunction:
    """1 + a bounded random ripple; strictly positive by construction."""
    ripple = random_band_limited(n, degree, max_degree, rng, decay=0.25, axis=axis)
    vals = discretization(n, degree, oversample=4).scan(ripple.coeffs)[0]
    peak = float(np.abs(vals).max())
    if peak > 0:
        ripple = ripple.scaled(amplitude / peak)
    return constant_function(n, 1.0, degree, axis=ripple.axis) + ripple


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_json_dict(u: SpectralFunction) -> dict:
    out = {"dim": u.n, "kind": u.rep.kind, "coeffs": [float(c) for c in u.coeffs]}
    if u.axis is not None:
        out["axis"] = [float(a) for a in u.axis]
    return out


def from_json_dict(data: dict) -> SpectralFunction:
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):  # int() would truncate 1.9; a bool is an int
        raise ValueError(f"dim must be an integer, got {dim!r}")
    axis = np.asarray(data["axis"], dtype=float) if "axis" in data else None
    u = SpectralFunction(dim, np.asarray(data["coeffs"], dtype=float), axis)
    # a file without "kind" loads by its dim
    if "kind" in data and data["kind"] != u.rep.kind:
        raise ValueError(f"kind {data['kind']!r} is not {u.rep.kind!r}, the kind of a function on S^{dim}")
    return u
