"""Exact multipliers p_2m(alpha) in ``fractions`` alone, so the exact paths load no numpy."""

from fractions import Fraction


def multiplier(n: int, m: int, degree: int) -> Fraction:
    """Exact eigenvalue of the order-2m operator on degree-``degree`` harmonics."""
    if n < 1 or m < 1 or degree < 0:
        raise ValueError("require n >= 1, m >= 1, degree >= 0")
    lam = Fraction(degree * (degree + n - 1))
    out = Fraction(1)
    for i in range(m):
        out *= lam - Fraction(2 * i + n, 2) * Fraction(2 * i - n + 2, 2)
    return out
