import math
from fractions import Fraction

import numpy as np
import pytest

from confsphere import gjms
from confsphere.errors import ConfSphereError, CriticalOrder, SingularOperator
from confsphere.exact import multiplier
from confsphere.gjms import (
    apply_operator,
    green_closed_values,
    green_constant,
    green_series_values,
    green_spectral,
    kernel_degrees,
    q_constant,
    reproduce_at_pole,
    s1_derivative_form_coefficients,
)
from confsphere.spectral import (
    constant_function,
    harmonic_basis_function,
    packed_degrees,
    random_band_limited,
    synthesize,
)


def test_multiplier_values():
    assert multiplier(1, 1, 0) == Fraction(-1, 4)
    assert multiplier(1, 2, 0) == Fraction(9, 16)
    assert multiplier(2, 2, 1) == 0
    assert multiplier(3, 2, 0) == Fraction(-15, 16)
    assert multiplier(1, 2, 1) == Fraction(-15, 16)


def test_multiplier_polynomial_s1_m2():
    # p(alpha) = (alpha^2 - 1/4)(alpha^2 - 9/4) = alpha^4 - (5/2) alpha^2 + 9/16
    for a in range(0, 20):
        a2 = Fraction(a * a)
        assert multiplier(1, 2, a) == a2 * a2 - Fraction(5, 2) * a2 + Fraction(9, 16)


def multiplier_shifted_squares(n: int, m: int, degree: int) -> Fraction:
    """The eigenvalue of :func:`multiplier` via the integer product ((2a+n-1)^2 - (2i+1)^2) / 4^m."""
    num = 1
    s = 2 * degree + n - 1
    for i in range(m):
        num *= s * s - (2 * i + 1) ** 2
    return Fraction(num, 4**m)


def test_factorizations_agree_exactly():
    for n in (1, 2, 3, 4, 5):
        for m in range(1, 9):
            for a in range(0, 201):
                assert multiplier(n, m, a) == multiplier_shifted_squares(n, m, a)


def test_sign_pattern_odd_n():
    # positive whenever (2a+n-1)^2 > (2m-1)^2
    for n in (1, 3, 5):
        for m in range(1, 9):
            for a in range(0, 201):
                if (2 * a + n - 1) ** 2 > (2 * m - 1) ** 2:
                    assert multiplier(n, m, a) > 0


def test_odd_n_never_vanishes():
    for n in (1, 3, 5):
        for m in range(1, 9):
            for a in range(0, 201):
                assert multiplier(n, m, a) != 0


def test_even_n_nonnegative_above_critical():
    for n in (2, 4):
        for m in range(n // 2 + 1, 9):
            for a in range(0, 201):
                assert multiplier(n, m, a) >= 0


def test_kernel_degrees_rejects_a_broken_kernel_claim(monkeypatch):
    exact = gjms.multiplier
    monkeypatch.setattr(gjms, "multiplier", lambda n, m, a: exact(n, m, a) + (a == 1))
    with pytest.raises(ConfSphereError, match="lie in the kernel"):
        kernel_degrees(2, 2)
    monkeypatch.setattr(gjms, "multiplier", lambda n, m, a: exact(n, m, a) * (a != 2))
    with pytest.raises(ConfSphereError, match="outside the kernel"):
        kernel_degrees(2, 2)


def test_kernel_degrees():
    assert kernel_degrees(2, 2) == {0, 1}
    assert kernel_degrees(3, 2) == set()
    assert kernel_degrees(4, 2) == {0}
    for n in (2, 4):
        for m in range(n // 2 + 1, 9):
            expected = set(range(0, m - n // 2 + 1))
            assert kernel_degrees(n, m) == expected
            # exact zero set agrees with a direct sweep well past the kernel
            direct = {a for a in range(0, 60) if multiplier(n, m, a) == 0}
            assert direct == expected


def test_order_n_plus_3_factored_form():
    # the order-(n+3) operator factors through two shifted multipliers and
    # the nonnegative product of the remaining ones (odd n)
    for n in (1, 3, 5):
        m = (n + 3) // 2
        for a in range(0, 51):
            lam = Fraction(a * (a + n - 1))
            prod = (lam - Fraction(2 * n - 1, 4)) * (lam - Fraction(3 * (2 * n + 1), 4))
            for i in range(0, (n - 3) // 2 + 1):
                prod *= lam + Fraction(2 * i + n, 2) * Fraction(n - 2 - 2 * i, 2)
            assert multiplier(n, m, a) == prod, (n, a)


def test_q_constant():
    assert q_constant(1, 1) == Fraction(1, 2)
    assert q_constant(3, 2) == Fraction(15, 8)
    assert q_constant(1, 2) == Fraction(-3, 8)
    with pytest.raises(CriticalOrder):
        q_constant(2, 1)


def test_apply_operator_constant():
    one = constant_function(1, 1.0, 8)
    out = apply_operator(one, 1)
    vals = synthesize(out, np.linspace(0, 6, 7))
    assert np.max(np.abs(vals + 0.25)) < 1e-14


def test_apply_operator_sin_m2():
    sin = harmonic_basis_function(1, 1, 8, component="sin")
    out = apply_operator(sin, 2)
    assert np.max(np.abs(out.coeffs + (15.0 / 16.0) * sin.coeffs)) < 1e-15


def test_operator_factors_sequentially():
    # applying the first-order factors one at a time reproduces the full
    # multiplier exactly (diagonal arithmetic)
    n, m, L = 3, 3, 10
    rng = np.random.default_rng(0)
    u = random_band_limited(n, L, L, rng)
    factors = [Fraction(2 * i + n, 2) * Fraction(2 * i - n + 2, 2) for i in range(m)]
    coeffs = u.coeffs.copy()
    degs = packed_degrees(u.n, u.degree)
    lam = np.array([float(Fraction(a * (a + n - 1))) for a in range(L + 1)])[degs]
    for f in factors:
        coeffs = (lam - float(f)) * coeffs
    direct = apply_operator(u, m)
    assert np.max(np.abs(coeffs - direct.coeffs)) < 1e-12 * max(1.0, np.max(np.abs(coeffs)))


def test_self_adjointness_exact():
    rng = np.random.default_rng(1)
    u = random_band_limited(1, 16, 16, rng)
    v = random_band_limited(1, 16, 16, rng)
    # exact as rational arithmetic on the diagonal operator
    degs = packed_degrees(u.n, u.degree)
    table = [multiplier(1, 2, a) for a in range(17)]
    lhs_exact = sum(table[degs[i]] * Fraction(u.coeffs[i]) * Fraction(v.coeffs[i]) for i in range(u.coeffs.size))
    rhs_exact = sum(Fraction(u.coeffs[i]) * table[degs[i]] * Fraction(v.coeffs[i]) for i in range(u.coeffs.size))
    assert lhs_exact == rhs_exact
    # and to rounding in floats
    lhs = float(apply_operator(u, 2).coeffs @ v.coeffs)
    rhs = float(u.coeffs @ apply_operator(v, 2).coeffs)
    assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)


def test_multiplier_table():
    # each float is its exact multiplier rounded once, and the packed table takes them per degree
    table = gjms.multiplier_floats(1, 2, 6)
    assert table[0] == float(Fraction(9, 16))
    assert table.tolist() == [float(multiplier(1, 2, a)) for a in range(7)]
    for n in (1, 3):
        packed = gjms.packed_multipliers(n, 2, 6)
        assert packed.tolist() == [float(multiplier(n, 2, a)) for a in packed_degrees(n, 6)]


def test_derivative_form_coefficients():
    assert s1_derivative_form_coefficients(1) == [Fraction(-1, 4), Fraction(1)]
    assert s1_derivative_form_coefficients(2) == [
        Fraction(9, 16),
        Fraction(-5, 2),
        Fraction(1),
    ]


# ---------------------------------------------------------------------------
# Green's function
# ---------------------------------------------------------------------------


def test_green_constants():
    # the fundamental solution of (-Delta)^m on R^n (Stein, ch. V): for
    # (1, 1) the kernel is -|sin(theta/2)|, and -G'' - G/4 = delta
    assert abs(green_constant(1, 1) + 1.0) < 1e-15
    assert abs(green_constant(3, 2) + 1.0 / (4 * math.pi)) < 1e-15
    # pi_xi vanishes at the antipode (t = -1), so the kernel equals kappa there
    for n, m in ((1, 1), (3, 2)):
        assert green_closed_values(n, m, np.array([-1.0]))[0] == green_constant(n, m)
    # the radial factor tends to zero at the pole itself
    near = np.array([0.999999999])
    assert abs(green_closed_values(1, 1, near)[0]) < 1e-4
    assert np.all(np.isfinite(green_closed_values(3, 2, np.linspace(-1, 1, 101))))


def test_green_spectral_reproduces_point_values():
    rng = np.random.default_rng(2)
    green = green_spectral(1, 1, 64)
    for _ in range(10):
        u = random_band_limited(1, 64, 32, rng) + constant_function(1, 1.0, 64)
        predicted = reproduce_at_pole(green, u, 1)
        actual = float(synthesize(u, np.array([0.0]))[0])
        assert abs(predicted - actual) < 1e-8


def test_green_spectral_zonal_symmetry():
    green = green_spectral(1, 1, 32)
    theta = np.linspace(0.2, 3.0, 9)
    left = synthesize(green, theta)
    right = synthesize(green, 2 * math.pi - theta)
    assert np.max(np.abs(left - right)) < 1e-14


def test_green_spectral_singular_operator():
    with pytest.raises(SingularOperator):
        green_spectral(2, 2, 16)


def test_green_ratio_constant():
    # the closed form equals the summed spectral series
    ts = np.linspace(-0.95, 0.75, 10)
    for n, m in ((1, 1), (1, 2)):
        ratio = green_closed_values(n, m, ts) / green_series_values(n, m, ts)
        assert np.max(ratio) - np.min(ratio) < 1e-6
    ratio = green_closed_values(1, 1, ts) / green_series_values(1, 1, ts)
    assert abs(float(np.mean(ratio)) - 1.0) < 1e-9


def test_green_spectral_partial_sums_approach_scaled_closed_form():
    # at the antipode the truncated series drifts toward the closed form as L grows
    target = green_closed_values(1, 1, np.array([-1.0]))[0]
    errs = []
    for L in (16, 64, 256):
        g = green_spectral(1, 1, L)
        errs.append(abs(float(synthesize(g, np.array([math.pi]))[0]) - target))
    assert errs[2] < errs[1] < errs[0]
