"""The conformal covariant operators of order 2m on S^n.

On the round sphere the order-2m operator is the product
``prod_{i=0}^{m-1} (-Delta - (i + n/2)(i - n/2 + 1))`` and therefore acts
on spherical harmonics of degree ``alpha`` by the exact rational
multiplier

    p_2m(alpha) = prod_{i=0}^{m-1} (alpha (alpha + n - 1) - (i + n/2)(i - n/2 + 1))
                = 4^{-m}  prod_{i=0}^{m-1} ((2 alpha + n - 1)^2 - (2i + 1)^2).

All kernel and sign statements are decided in exact arithmetic; floats
appear only when a multiplier is applied to spectral coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Set

import numpy as np

from . import spectral
from .errors import ConfSphereError, CriticalOrder, SingularOperator
from .geometry import north_pole, unit_ball_volume
from .spectral import SpectralFunction, packed_degrees, zonal_basis_matrix


def multiplier(n: int, m: int, degree: int) -> Fraction:
    """Exact eigenvalue of the order-2m operator on degree-``degree`` harmonics."""
    if n < 1 or m < 1 or degree < 0:
        raise ValueError("require n >= 1, m >= 1, degree >= 0")
    lam = Fraction(degree * (degree + n - 1))
    out = Fraction(1)
    for i in range(m):
        out *= lam - Fraction(2 * i + n, 2) * Fraction(2 * i - n + 2, 2)
    return out


def multiplier_shifted_squares(n: int, m: int, degree: int) -> Fraction:
    """Same eigenvalue via the integer product ((2a+n-1)^2 - (2i+1)^2) / 4^m."""
    num = 1
    s = 2 * degree + n - 1
    for i in range(m):
        num *= s * s - (2 * i + 1) ** 2
    return Fraction(num, 4**m)


@dataclass(frozen=True)
class MultiplierTable:
    """Multipliers p_2m(alpha) for alpha = 0..max_degree, exact and immutable."""

    n: int
    m: int
    values: tuple

    @classmethod
    def build(cls, n: int, m: int, max_degree: int) -> "MultiplierTable":
        return cls(n=n, m=m, values=tuple(multiplier(n, m, a) for a in range(max_degree + 1)))

    @property
    def max_degree(self) -> int:
        return len(self.values) - 1

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.values])


def multiplier_floats(n: int, m: int, max_degree: int) -> np.ndarray:
    return MultiplierTable.build(n, m, max_degree).as_floats()


@lru_cache(maxsize=256)
def packed_multipliers(n: int, m: int, degree: int) -> np.ndarray:
    """Read-only float multiplier of each packed coefficient, from the exact table once."""
    return spectral._cached_array(multiplier_floats(n, m, degree)[packed_degrees(n, degree)])


def kernel_degrees(n: int, m: int) -> Set[int]:
    """Exact set of harmonic degrees annihilated by the order-2m operator.

    Empty for odd n; {0, ..., m - n/2} for even n with m > n/2.  Each
    membership decision is re-verified against the exact multiplier.
    """
    if n % 2 == 1:
        return set()
    # (2a+n-1)^2 = (2i+1)^2 solves to i = a + n/2 - 1, admissible for i < m
    out = set(range(0, m - n // 2 + 1))
    for a in sorted(out):
        if multiplier(n, m, a) != 0:
            raise ConfSphereError(f"degree {a} should lie in the kernel at n={n}, m={m}")
    # boundary degrees just outside the kernel must be nonzero
    for a in (max(out, default=-1) + 1, max(out, default=-1) + 2):
        if multiplier(n, m, a) == 0:
            raise ConfSphereError(f"degree {a} should lie outside the kernel at n={n}, m={m}")
    return out


def q_constant(n: int, m: int) -> Fraction:
    """The constant curvature quantity (2/(n-2m)) p_2m(0), exact."""
    if 2 * m == n:
        raise CriticalOrder("the curvature constant is undefined at 2m = n")
    return Fraction(2, n - 2 * m) * multiplier(n, m, 0)


def apply_operator(u: SpectralFunction, m: int) -> SpectralFunction:
    """Coefficientwise action of the order-2m operator."""
    return SpectralFunction(u.n, packed_multipliers(u.n, m, u.degree) * u.coeffs, u.axis)


def s1_derivative_form_coefficients(m: int) -> List[Fraction]:
    """Exact e_j with  E_2m(u) = sum_j e_j * integral (d^j u / dtheta^j)^2  on S^1.

    These are the coefficients of prod_{i=0}^{m-1} (x - (2i+1)^2/4) in
    x = alpha^2; e.g. m = 2 gives x^2 - (5/2) x + 9/16.
    """
    poly = [Fraction(1)]
    for i in range(m):
        root = Fraction((2 * i + 1) ** 2, 4)
        nxt = [Fraction(0)] * (len(poly) + 1)
        for j, c in enumerate(poly):
            nxt[j + 1] += c
            nxt[j] -= root * c
        poly = nxt
    return poly


# ---------------------------------------------------------------------------
# Green's function
# ---------------------------------------------------------------------------


def green_constant(n: int, m: int) -> float:
    """Closed-form prefactor 2^{m-n+1} / ((m-1)! prod_{i=0}^{m}(n-2i) omega_n).

    It is the fundamental solution Gamma(n/2 - m) / (4^m pi^{n/2} Gamma(m))
    |x|^{2m-n} of (-Delta)^m on R^n (Stein, *Singular Integrals*, ch. V)
    with |xi - zeta|^{2m-n} = 2^{2m-n} ((1-t)/2)^{(2m-n)/2}; for (1, 1) the
    kernel is -|sin(theta/2)|.
    """
    if n % 2 == 0 or 2 * m <= n:
        raise ValueError("closed-form Green's function requires odd n with 2m > n")
    prod = 1
    for i in range(m + 1):
        prod *= n - 2 * i
    return 2.0 ** (m - n + 1) / (math.factorial(m - 1) * prod * unit_ball_volume(n))


def green_closed_values(n: int, m: int, t: np.ndarray) -> np.ndarray:
    """Closed-form kernel at axis cosine t: kappa (1 + |pi_xi|^2)^{-(2m-n)/2}.

    Since |pi_xi|^2 = (1+t)/(1-t), the radial factor is ((1-t)/2)^{(2m-n)/2},
    bounded on the whole sphere (the exponent is positive for 2m > n).
    """
    t = np.asarray(t, dtype=float)
    return green_constant(n, m) * ((1.0 - t) / 2.0) ** ((2 * m - n) / 2.0)


def green_closed_form(n: int, m: int, xi: np.ndarray, zeta: np.ndarray) -> float:
    t = float(np.asarray(xi) @ np.asarray(zeta))
    return float(green_closed_values(n, m, np.array([t]))[0])


def green_spectral(
    n: int, m: int, degree: int, axis: Optional[np.ndarray] = None
) -> SpectralFunction:
    """Truncated spectral inverse: the degree-wise kernel over the multipliers.

    Pairing the operator applied to the result against any band-limited
    test function reproduces the test function's value at the pole, up to
    truncation.  Raises :class:`SingularOperator` if a multiplier vanishes.
    """
    table = MultiplierTable.build(n, m, degree)
    if any(v == 0 for v in table.values):
        raise SingularOperator("a spectral multiplier vanishes; no inverse")
    p = table.as_floats()
    if n == 1:
        coeffs = np.zeros(2 * degree + 1)
        coeffs[0] = (1.0 / math.sqrt(2.0 * math.pi)) / p[0]
        for k in range(1, degree + 1):
            coeffs[2 * k - 1] = (1.0 / math.sqrt(math.pi)) / p[k]
        return SpectralFunction(1, coeffs)
    if axis is None:
        axis = north_pole(n)
    z_at_pole = zonal_basis_matrix(n, degree, np.array([1.0]))[:, 0]
    return SpectralFunction(n, z_at_pole / p, axis)


def reproduce_at_pole(green: SpectralFunction, u: SpectralFunction, m: int) -> float:
    """<P_2m G, u>, which should equal u at the pole of G."""
    pg = apply_operator(green, m)
    a, b = spectral._aligned(pg, u)
    return float(a @ b)


def _float_shifted_squares(n: int, m: int, alpha: np.ndarray) -> np.ndarray:
    """p_2m(alpha) in floats, as ((2 alpha + n - 1)^2 - (2i + 1)^2) products over 4^m.

    For degree ranges too long for the exact table: each factor is an exact
    integer, so only the m - 1 products round.
    """
    s = 2.0 * alpha + (n - 1)
    out = np.ones(s.shape)
    for i in range(m):
        out *= s * s - (2 * i + 1) ** 2
    return out / 4.0**m


def green_series_values(
    n: int, m: int, t: np.ndarray, terms: int = 20000
) -> np.ndarray:
    """High-accuracy summation of the spectral series at axis cosines t.

    Independent of :func:`green_closed_values`; used to measure the
    closed-form/spectral ratio.  On the circle with m = 1 the slowly
    converging 1/k^2 part is summed in closed form (Kummer acceleration);
    all faster-decaying parts are summed directly.
    """
    t = np.asarray(t, dtype=float)
    if n == 1:
        theta = np.arccos(np.clip(t, -1.0, 1.0))
        p0 = float(multiplier(1, m, 0))
        k = np.arange(1, terms + 1, dtype=float)
        pk = _float_shifted_squares(1, m, k)
        out = np.full(theta.shape, 1.0 / (2.0 * math.pi * p0))
        cos_kth = np.cos(np.outer(theta, k))
        if m == 1:
            # sum cos(k th)/k^2 = pi^2/6 - pi th/2 + th^2/4 on [0, 2 pi]
            closed = math.pi**2 / 6.0 - math.pi * theta / 2.0 + theta**2 / 4.0
            out += closed / math.pi
            out += (cos_kth @ (1.0 / pk - 1.0 / (k * k))) / math.pi
        else:
            out += (cos_kth @ (1.0 / pk)) / math.pi
        return out
    p = _float_shifted_squares(n, m, np.arange(terms + 1, dtype=float))
    # one basis build: the samples and, last, the pole
    z = zonal_basis_matrix(n, terms, np.append(t, 1.0))
    return z[:, :-1].T @ (z[:, -1] / p)
