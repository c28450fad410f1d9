"""Independent references the benchmark checks outputs against.

Everything here is computed from the published formulas with the standard
library only; nothing is imported from the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: acceptance tolerances: criteria 01/03 (first stable order), 02 (second),
#: 04 (Mobius invariance), 08 (flat identity), 11 (Green's kernel), 12
SOLVE_TOL_FIRST = 1e-6
SOLVE_TOL_SECOND = 1e-5
CLOSED_FORM_TOL = 1e-10
INVARIANCE_TOL = 1e-6
FLAT_TOL = 1e-6
GREEN_REPRODUCE_TOL = 1e-8
GREEN_SPREAD_TOL = 1e-6


def sphere_measure(n: int) -> float:
    """|S^n| = 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def multiplier(n: int, m: int, degree: int) -> Fraction:
    """p_2m(alpha) = 4^{-m} prod_{i<m} ((2 alpha + n - 1)^2 - (2i + 1)^2)."""
    num = 1
    for i in range(m):
        num *= (2 * degree + n - 1) ** 2 - (2 * i + 1) ** 2
    return Fraction(num, 4**m)


def functional_at_one(n: int, m: int) -> float:
    """I(1) = p_2m(0) |S^n|^{1 + 2/q} with q = 2n / (2m - n)."""
    power = Fraction(1) + Fraction(2 * m - n, n)
    return float(multiplier(n, m, 0)) * sphere_measure(n) ** float(power)


def sharp_constant(n: int, m: int) -> float:
    """Closed forms for odd n at the two stable orders.

    m = (n+1)/2: -(2n)! / (2^{2n+1} n!) |S^n|^{(n+1)/n}
    m = (n+3)/2: 3 (2n+1)! / (2^{2n+3} n!) |S^n|^{(n+3)/n}

    On S^1 these are -pi^2 and 9 pi^4.
    """
    if n % 2 == 1 and 2 * m == n + 1:
        frac = -Fraction(math.factorial(2 * n), 2 ** (2 * n + 1) * math.factorial(n))
        power = Fraction(n + 1, n)
    elif n % 2 == 1 and 2 * m == n + 3:
        frac = Fraction(3 * math.factorial(2 * n + 1), 2 ** (2 * n + 3) * math.factorial(n))
        power = Fraction(n + 3, n)
    else:
        raise ValueError(f"no closed form at (n, m) = ({n}, {m})")
    return float(frac) * sphere_measure(n) ** float(power)


def solve_tolerance(n: int, m: int) -> float:
    return SOLVE_TOL_FIRST if 2 * m == n + 1 else SOLVE_TOL_SECOND


def solve_budget(n: int, m: int) -> int:
    """Iteration budgets of the descents in criteria 01 and 02."""
    return 300 if 2 * m == n + 1 else 400


def is_stable(n: int, m: int) -> bool:
    """Orders whose constant is the minimizer: 2m > n and m < (n + 5) / 2."""
    return 2 * m > n and 2 * m < n + 5


def hessian_eigenvalue(n: int, m: int, degree: int) -> Fraction:
    """Second variation at u = 1: 0 at degree 0, else p(a) + (2m+n)/(2m-n) p(0)."""
    if degree == 0:
        return Fraction(0)
    return multiplier(n, m, degree) + Fraction(2 * m + n, 2 * m - n) * multiplier(n, m, 0)


def sin_energy_m2() -> float:
    """E_4(sin) on S^1: p_4(1) pi = -15 pi / 16."""
    return -15.0 * math.pi / 16.0


def sin_neg_power_integral() -> float:
    """Integral of |sin|^{-2/3} over the circle: 2 B(1/2, 1/6)."""
    return 2.0 * math.gamma(0.5) * math.gamma(1.0 / 6.0) / math.gamma(2.0 / 3.0)


def close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * abs(target)
