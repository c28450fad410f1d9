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
"""

from __future__ import annotations

import json
import math
import mmap
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import AxisMismatch, InsufficientNodes, NonPositiveFunction
from .geometry import north_pole, sphere_measure, sphere_surface_area, unit_vector

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
    weights ``2 pi / K``.  For ``n >= 2`` they are Gauss-Jacobi nodes in
    ``t in (-1, 1)`` for the weight ``(1 - t^2)^{(n-2)/2}``, scaled by the
    surface area of S^{n-1} so that the weights sum to ``mu(S^n)``.
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
    t, w = roots_jacobi(num_nodes, (n - 2) / 2.0)
    return QuadratureRule(n=n, nodes=t, weights=w * sphere_surface_area(n))


def quadrature_for_degree(n: int, degree: int, oversample: int = 2) -> QuadratureRule:
    """Rule large enough to analyze degree-``degree`` functions, oversampled."""
    if n == 1:
        return circle_quadrature(oversample * (2 * degree + 2))
    return zonal_quadrature(n, oversample * (degree + 1))


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


def _log_gegenbauer_norm_sq(alpha: int, nu: float) -> float:
    # \int_{-1}^{1} C_alpha^nu(t)^2 (1 - t^2)^{nu - 1/2} dt, in log form
    return (
        math.log(math.pi)
        + (1.0 - 2.0 * nu) * math.log(2.0)
        + math.lgamma(alpha + 2.0 * nu)
        - math.lgamma(alpha + 1.0)
        - math.log(alpha + nu)
        - 2.0 * math.lgamma(nu)
    )


@lru_cache(maxsize=64)
def _zonal_normalization(n: int, degree: int) -> np.ndarray:
    """Factors taking C_alpha^{(n-1)/2} to unit L^2(mu_{S^n}) norm, alpha = 0..degree."""
    nu = (n - 1) / 2.0
    log_area = math.log(sphere_surface_area(n))
    return _cached_array(
        np.array(
            [math.exp(-0.5 * (log_area + _log_gegenbauer_norm_sq(a, nu))) for a in range(degree + 1)]
        )
    )


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


def basis_matrix(n: int, degree: int, points: np.ndarray) -> np.ndarray:
    """Packed basis of degree-``degree`` functions on S^n at ``points``, one row per coefficient.

    ``points`` are angles for ``n = 1`` and axis cosines for zonal functions.
    """
    if n == 1:
        return circle_basis_matrix(degree, points)
    return zonal_basis_matrix(n, degree, points)


def packed_degrees(n: int, degree: int) -> np.ndarray:
    """Spherical-harmonic degree of each packed coefficient."""
    if n == 1:
        return np.concatenate([[0], np.repeat(np.arange(1, degree + 1), 2)])
    return np.arange(degree + 1)


# ---------------------------------------------------------------------------
# the spectral function type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralFunction:
    """A function on S^n held as orthonormal spectral coefficients.

    ``n == 1`` is a full Fourier series; odd ``n >= 3`` is zonal about
    ``axis``.  Instances are immutable and safe to share.
    """

    n: int
    coeffs: np.ndarray
    axis: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError(f"spectral coefficients form one flat array, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("spectral coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        if self.n == 1:
            if self.axis is not None:
                raise ValueError("circle functions carry no zonal axis")
            if c.size % 2 == 0:
                raise ValueError("circle coefficients pack as [a0, a1, b1, ...]")
        else:
            if self.n % 2 == 0 or self.n < 3:
                raise ValueError("zonal representation requires odd n >= 3")
            if self.axis is None:
                raise ValueError("zonal functions require an axis")
            axis = np.asarray(self.axis, dtype=float)
            if axis.shape != (self.n + 1,):
                raise AxisMismatch(f"a zonal axis on S^{self.n} has {self.n + 1} entries, got shape {axis.shape}")
            # an axis of norm exactly 1.0 is kept as given: v / 1.0 is v
            if math.sqrt(float(axis.dot(axis))) != 1.0:
                axis = unit_vector(axis)
            object.__setattr__(self, "axis", axis)

    @property
    def kind(self) -> str:
        return "circle" if self.n == 1 else "zonal"

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2 if self.n == 1 else self.coeffs.size - 1

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
    if u.n != 1 and float(np.abs(u.axis - v.axis).max()) > 1e-12:
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
    functions; one value per point, in the order given.  ``deriv`` (circle
    only, else ``ValueError``) evaluates the theta-derivative of that order
    (>= 0), which is exact for the truncated series.  Values on the nodes
    of a cached rule come from :meth:`Discretization.scan` instead.

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
    if deriv < 0:
        raise ValueError("the derivative order must be >= 0")
    if deriv != 0 and u.n != 1:
        raise ValueError("derivative synthesis is only provided on the circle")
    x = np.asarray(points, dtype=float).ravel()
    if u.n == 1:
        z = np.exp(1j * x)
    else:
        # (1 - t)(1 + t) keeps its relative accuracy near the poles
        z = x + 1j * np.sqrt(np.maximum((1.0 - x) * (1.0 + x), 0.0))
    return _unit_circle_sum(u, z, deriv)


def _unit_circle_sum(u: SpectralFunction, z: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Re sum_j d_j z^j at the complex points z of :func:`synthesize`, summed in blocks."""
    c = u.coeffs
    if u.n == 1:
        d = np.empty(u.degree + 1, dtype=complex)
        d[0] = c[0] * (1.0 / math.sqrt(TWO_PI))
        d[1:] = (c[1::2] - 1j * c[2::2]) * (1.0 / math.sqrt(math.pi))
        if deriv != 0:
            d *= (1j * np.arange(u.degree + 1)) ** deriv
    else:
        d = _chebyshev_matrix(u.n, u.degree).dot(c)
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

    Exact (to rounding) on band-limited input when the rule meets the
    Gauss exactness bound; :class:`InsufficientNodes` otherwise.  ``basis``
    is the degree-``degree`` basis on the rule nodes, built here if absent.
    """
    values = np.asarray(values, dtype=float)
    if rule.size < (2 * degree + 2 if rule.n == 1 else degree + 1):
        kind = "circle grid" if rule.n == 1 else "Gauss-Jacobi rule"
        raise InsufficientNodes(f"{kind} of {rule.size} nodes cannot resolve degree {degree}")
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
    its transposed view, and ``points`` the node coordinates y_i: the
    complex unit nodes z = cos th + i sin th on the circle, the unit disk's
    boundary, and the axis cosines t (the rule nodes) on a zonal rule, whose
    moments lie along its axis.  The positivity grid is the rule nodes, plus
    the poles t = -1, 1 on a zonal rule, since Gauss-Jacobi nodes are
    interior: ``poles`` is the (2, degree + 1) basis there, and None on the
    circle.  :meth:`scan` reads the grid and :meth:`gate` decides on it.
    ``sin_sq`` is (1 - t)(1 + t) at the nodes of a zonal rule, the squared
    sine of their polar angle, and None on the circle.  Every cached array
    is read-only.  ``evaluators`` holds the evaluators of the functional on
    a cached 4x discretization, by order m (see
    :func:`confsphere.functional.evaluator`); the cache empties it when it
    drops the discretization, and it is None on one the cache does not hold.
    """

    rule: QuadratureRule
    degree: int
    basis: np.ndarray
    basis_t: np.ndarray
    points: np.ndarray
    poles: Optional[np.ndarray]
    sin_sq: Optional[np.ndarray]
    evaluators: Optional[dict] = None

    @property
    def nbytes(self) -> int:
        # basis_t is a view of basis; zonal points are the rule's own nodes
        arrays = (self.rule.nodes, self.rule.weights, self.basis, self.points, self.poles, self.sin_sq)
        distinct = {id(a): a for a in arrays if a is not None}
        return sum(a.nbytes for a in distinct.values())

    def analyze(self, values: np.ndarray, axis: Optional[np.ndarray] = None) -> SpectralFunction:
        """Projection of values on the rule nodes onto degrees <= ``degree``."""
        return analyze(values, self.rule, self.degree, axis, basis=self.basis)

    def scan(self, c: np.ndarray) -> tuple:
        """(values, minimum, maximum) of ``c`` on the rule nodes, synthesized once, then its grid minimum."""
        vals = self.basis_t.dot(c)
        low, high = float(vals.min()), float(vals.max())
        if self.poles is None:
            return vals, low, high, low
        south, north = self.poles.dot(c).tolist()
        return vals, low, high, min(low, south, north)

    def gate(self, c: np.ndarray, refuse: bool = True) -> Optional[tuple]:
        """The positivity gate: :meth:`scan` of the coefficients ``c`` once they pass.

        c passes when its grid minimum is a normal float (1 / minimum is finite)
        above :data:`POSITIVITY_FLOOR` times its node maximum, so the gate decides
        c u as u.  Else :class:`NonPositiveFunction`, or None if not ``refuse``.
        """
        scanned = self.scan(c)
        _, _, high, grid_low = scanned
        if grid_low > POSITIVITY_FLOOR * high and grid_low >= sys.float_info.min:
            return scanned
        if refuse:
            why = f"above {POSITIVITY_FLOOR:g} times the node maximum {high:.3e}"
            why = "a normal float" if grid_low > POSITIVITY_FLOOR * high else why
            raise NonPositiveFunction(f"function fails the positivity floor: grid minimum {grid_low:.3e} is not {why}")
        return None


def _ball_moment(disc: Discretization, values: np.ndarray, a, slope: bool = False, weighted=None):
    """First moment of the measure f dmu moved by sigma_{-a}, from the values f_i of f on the nodes.

        V(a) = sum_i w_i f_i sigma_{-a}(y_i),   a and V in the node coordinates ``disc.points``.

    With f = u^{-q} it is the first moment of the volume of the sigma_a
    pullback of u, since u_a^{-q} dmu = sigma_a^*(u^{-q} dmu); at a = 0 it
    is the first moment.  On the unit disk a is complex, sigma_{-a}(z) =
    (z + a) / (1 + conj(a) z), and ``slope`` adds the Wirtinger pair
    (dV/da, dV/d conj(a)).  On a zonal rule a is the float r = a . xi and
    the node coordinate the axis cosine t, where sigma_{-a} acts as
    t -> (t + rho) / (1 + rho t) with rho = 2r / (1 + r^2); ``slope`` adds

        dV/dr = 2 (1 - r^2) / (1 + r^2)^2 sum_i w_i f_i (1 - t_i)(1 + t_i) / (1 + rho t_i)^2.

    At r = 0 the moment is summed as w . (f t), the descent's V(0).
    ``weighted`` is the product w * f, taken here if absent.
    """
    y, w = disc.points, disc.rule.weights
    if disc.rule.n == 1:
        f = w * values if weighted is None else weighted
        if a == 0:
            den, z = 1.0, y
        else:
            den = 1.0 + a.conjugate() * y
            f, z = f / den, y + a
        v = complex(f.dot(z))
        if not slope:
            return v
        return v, (complex(f.sum()), -complex((f / den).dot(y * z)))
    a2 = a * a
    if weighted is None and (a != 0 or slope):  # V(0) alone is summed without it
        weighted = w * values
    if a == 0:
        c, g = float(w.dot(values * y)), weighted
    else:
        rho = 2.0 * a / (1.0 + a2)
        den = 1.0 + rho * y
        g = weighted / den
        c = float(g.dot(y + rho))
    if not slope:
        return c
    if a != 0:
        g = g / den
    return c, 2.0 * (1.0 - a2) / (1.0 + a2) ** 2 * float(g.dot(disc.sin_sq))


def _build_discretization(n: int, degree: int, oversample: int) -> Discretization:
    rule = quadrature_for_degree(n, degree, oversample=oversample)
    rule = QuadratureRule(n, _cached_array(rule.nodes), _cached_array(rule.weights))
    basis = _cached_array(basis_matrix(n, degree, rule.nodes))
    if n == 1:
        points = _cached_array(np.cos(rule.nodes) + 1j * np.sin(rule.nodes))
        return Discretization(rule, degree, basis, basis.T, points, None, None)
    poles = _cached_array(basis_matrix(n, degree, np.array([-1.0, 1.0])).T)
    # (1 - t)(1 + t) keeps its relative accuracy near the poles
    sin_sq = _cached_array((1.0 - rule.nodes) * (1.0 + rule.nodes))
    return Discretization(rule, degree, basis, basis.T, rule.nodes, poles, sin_sq)


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
    """Minimum of u over the positivity grid of its 4x discretization; the positivity surrogate.

    Gauss-Jacobi nodes are interior, so for zonal functions the poles
    t = +-1 are added; a dip exactly at a pole must not pass the gate.
    """
    return discretization(u.n, u.degree, oversample=4).scan(u.coeffs)[3]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _new_axis(n: int, axis: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The axis of a new function on S^n: ``axis`` or the north pole; the circle takes none."""
    if axis is None:
        return None if n == 1 else north_pole(n)
    if n == 1 or np.shape(axis) != (n + 1,):
        want = "no axis" if n == 1 else f"an axis of {n + 1} entries"
        raise AxisMismatch(f"a function on S^{n} takes {want}, got shape {np.shape(axis)}")
    return axis


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
    if not 0 <= harmonic_degree <= degree:
        raise ValueError(f"harmonic degree {harmonic_degree} lies outside 0..{degree}")
    if component not in ("cos", "sin"):
        raise ValueError(f"component must be 'cos' or 'sin', got {component!r}")
    degs = packed_degrees(n, degree)
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
    out = {"dim": u.n, "kind": u.kind, "coeffs": [float(c) for c in u.coeffs]}
    if u.axis is not None:
        out["axis"] = [float(a) for a in u.axis]
    return out


def from_json_dict(data: dict) -> SpectralFunction:
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):  # int() would truncate 1.9; a bool is an int
        raise ValueError(f"dim must be an integer, got {dim!r}")
    axis = np.asarray(data["axis"], dtype=float) if "axis" in data else None
    return SpectralFunction(dim, np.asarray(data["coeffs"], dtype=float), axis)


def dumps(u: SpectralFunction) -> str:
    return json.dumps(to_json_dict(u))


def loads(text: str) -> SpectralFunction:
    return from_json_dict(json.loads(text))
