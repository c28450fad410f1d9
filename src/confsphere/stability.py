"""Second variation of the invariant functional at the constant function.

At ``u = 1`` the second variation is, up to a positive prefactor, the
quadratic form of the self-adjoint operator

    A phi = P_2m phi + ((2m+n)/(2m-n)) P_2m 1 . phi
            - (4m/(2m-n)) (P_2m 1 / mu(S^n)) integral(phi),

which is diagonal on spherical harmonics.  All eigenvalues are exact
rationals: constants and degree-1 harmonics are always neutral (scaling
and the Mobius family), and for odd n a negative eigenvalue appears at
degree 2 or 3 exactly when m >= (n+5)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .errors import ClosedFormMismatch, NotUnstable
from .gjms import multiplier
from .spectral import SpectralFunction, harmonic_basis_function


def hessian_eigenvalue(n: int, m: int, degree: int) -> Fraction:
    """Exact eigenvalue of the second-variation operator at one degree."""
    if not 2 * m > n:
        raise ValueError("the second variation requires 2m > n")
    p0 = multiplier(n, m, 0)
    if degree == 0:
        # p(0) (1 + (2m+n)/(2m-n) - 4m/(2m-n)) cancels exactly
        return p0 * (1 + Fraction(2 * m + n, 2 * m - n) - Fraction(4 * m, 2 * m - n))
    return multiplier(n, m, degree) + Fraction(2 * m + n, 2 * m - n) * p0


def hessian_apply(phi: SpectralFunction, m: int) -> SpectralFunction:
    """Coefficientwise action of the second-variation operator."""
    n = phi.n
    mu = np.array(
        [float(hessian_eigenvalue(n, m, a)) for a in range(phi.degree + 1)]
    )
    return SpectralFunction(n, mu[phi.degree_of_coeff()] * phi.coeffs, phi.axis)


def h2_eigenvalue_closed(n: int, m: int) -> Fraction:
    """Closed-form eigenvalue on degree-2 harmonics: 2m prod(n/2+i) prod(n/2-i)."""
    out = Fraction(2 * m)
    for i in range(0, m + 1):
        out *= Fraction(n, 2) + i
    for i in range(1, m - 1):
        out *= Fraction(n, 2) - i
    return out


def h3_eigenvalue_closed(n: int, m: int) -> Fraction:
    """Closed-form eigenvalue on degree-3 harmonics (bracket times products)."""
    half_n = Fraction(n, 2)
    bracket = (m + half_n + 1) * (m + half_n + 2) - (m - half_n - 2) * (m - half_n - 1)
    out = bracket
    for i in range(0, m + 1):
        out *= half_n + i
    for i in range(1, m - 2):
        out *= half_n - i
    return out


@dataclass(frozen=True)
class HessianSpectrum:
    n: int
    m: int
    eigenvalues: tuple  # Fraction per degree 0..L
    has_negative: bool
    first_negative_degree: Optional[int]

    @property
    def max_degree(self) -> int:
        return len(self.eigenvalues) - 1


def hessian_spectrum(n: int, m: int, max_degree: int) -> HessianSpectrum:
    """Exact eigenvalue list with the closed-form degree-2/3 cross-check.

    When m >= (n+5)/2 the parity of m - (n+5)/2 selects which closed
    formula applies; exact equality with the spectral value is required,
    else :class:`ClosedFormMismatch` is raised.
    """
    eig = tuple(hessian_eigenvalue(n, m, a) for a in range(max_degree + 1))
    gap = m - (n + 5) // 2 if n % 2 == 1 else None
    if n % 2 == 1 and gap is not None and gap >= 0:
        if gap % 2 == 0:
            expected = h2_eigenvalue_closed(n, m)
            if max_degree >= 2 and eig[2] != expected:
                raise ClosedFormMismatch(
                    f"degree-2 eigenvalue {eig[2]} != closed form {expected}"
                )
        else:
            expected = h3_eigenvalue_closed(n, m)
            if max_degree >= 3 and eig[3] != expected:
                raise ClosedFormMismatch(
                    f"degree-3 eigenvalue {eig[3]} != closed form {expected}"
                )
    negatives = [a for a, v in enumerate(eig) if v < 0]
    return HessianSpectrum(
        n=n,
        m=m,
        eigenvalues=eig,
        has_negative=bool(negatives),
        first_negative_degree=negatives[0] if negatives else None,
    )


def instability_witness(
    n: int, m: int, degree: int = 32
) -> Tuple[int, Fraction, SpectralFunction]:
    """A concrete unstable direction: (harmonic degree, eigenvalue, function).

    For odd n with m >= (n+5)/2 the witness lives at degree 2 when
    m - (n+5)/2 is even and at degree 3 when it is odd.  Raises
    :class:`NotUnstable` if the selected eigenvalue fails to be negative,
    which would contradict the instability claim.
    """
    if n % 2 == 0 or m < (n + 5) // 2 or not 2 * m > n:
        raise NotUnstable(f"(n={n}, m={m}) is not in the unstable range")
    witness_degree = 2 if (m - (n + 5) // 2) % 2 == 0 else 3
    value = hessian_eigenvalue(n, m, witness_degree)
    if not value < 0:
        raise NotUnstable(
            f"eigenvalue at degree {witness_degree} is {value}, not negative"
        )
    phi = harmonic_basis_function(n, witness_degree, degree)
    return witness_degree, value, phi
