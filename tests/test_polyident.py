import random
from fractions import Fraction

import pytest

from confsphere.polyident import (
    RationalPolynomial,
    check_delta_k_product,
    check_identity_2_1,
    delta_k_product_sides,
    identity_2_1_sides,
    iterated_laplacian,
    laplacian,
    one_plus_norm_sq,
    partial,
    random_polynomial,
)


def half_one_plus_norm_sq(num_vars):
    """The weight polynomial W = (1 + |x|^2) / 2 = V / 2."""
    return one_plus_norm_sq(num_vars).scaled(Fraction(1, 2))


def var(n, i):
    return RationalPolynomial.variable(n, i)


def const(n, c):
    return RationalPolynomial.constant(n, c)


def test_laplacian_of_norm_squared():
    for n in (1, 2, 3):
        norm_sq = const(n, 0)
        for i in range(n):
            norm_sq = norm_sq + var(n, i) * var(n, i)
        assert laplacian(norm_sq) == const(n, 2 * n)


def test_laplacian_of_cube():
    p = var(1, 0) ** 3
    assert laplacian(p) == var(1, 0).scaled(6)


def test_laplacian_harmonic_polynomials():
    x, y = var(2, 0), var(2, 1)
    p = x * x * y - y**3
    assert laplacian(p) == y.scaled(-4)
    q = x**3 - (x * y * y).scaled(3)
    assert laplacian(q).is_zero


def test_laplacian_linearity_exact():
    rng = random.Random(0)
    p = random_polynomial(3, 5, rng)
    q = random_polynomial(3, 5, rng)
    lhs = laplacian(p.scaled(Fraction(3, 7)) + q.scaled(Fraction(-2, 5)))
    rhs = laplacian(p).scaled(Fraction(3, 7)) + laplacian(q).scaled(Fraction(-2, 5))
    assert lhs == rhs


def _laplacian_oracle(p):
    """The Laplacian as a sum of second partials, one variable at a time."""
    out = const(p.num_vars, 0)
    for i in range(p.num_vars):
        out = out + partial(partial(p, i), i)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_laplacian_matches_sum_of_second_partials(n):
    rng = random.Random(100 + n)
    for trial in range(60):
        p = random_polynomial(n, rng.randint(0, 10), rng)
        if trial % 2:
            p = p.scaled(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        assert laplacian(p) == _laplacian_oracle(p)


def test_weight_polynomial():
    w = half_one_plus_norm_sq(2)
    assert w.terms[(0, 0)] == Fraction(1, 2)
    assert w.terms[(2, 0)] == Fraction(1, 2)
    assert laplacian(w) == const(2, 2)


def test_identity_m0_constant():
    for n in (1, 2, 3):
        ok, residual = check_identity_2_1(const(n, 1), 0)
        assert ok and residual.is_zero


def test_identity_linear_m1():
    ok, residual = check_identity_2_1(var(3, 0), 1)
    assert ok, residual.terms


def test_identity_randomized():
    rng = random.Random(1)
    count = 0
    for n in (1, 2, 3):
        for m in range(0, 5):
            for _ in range(4):
                u = random_polynomial(n, 6, rng)
                ok, residual = check_identity_2_1(u, m)
                assert ok, (n, m, residual.terms)
                count += 1
    assert count >= 50


def test_product_rule_simple():
    n = 2
    # Delta(W * 1) = n for k = 1
    assert check_delta_k_product(const(n, 1), 1)
    assert check_delta_k_product(var(2, 0) * var(2, 1), 2)


def test_product_rule_randomized():
    rng = random.Random(2)
    for k in (1, 2, 3):
        for _ in range(5):
            u = random_polynomial(3, 5, rng)
            assert check_delta_k_product(u, k)


def test_polynomial_arithmetic():
    x = var(2, 0)
    y = var(2, 1)
    p = (x + y) ** 2
    assert p.terms[(2, 0)] == 1 and p.terms[(0, 2)] == 1 and p.terms[(1, 1)] == 2
    assert (p - p).is_zero
    assert p.degree() == 2
    with pytest.raises(ValueError):
        x ** (-1)


def test_zero_coefficients_pruned():
    p = RationalPolynomial(1, {(3,): Fraction(0), (1,): Fraction(2)})
    assert (3,) not in p.terms
    assert p.degree() == 1


# the identities in the Fraction weight W = (1 + |x|^2)/2, as first stated;
# the library checks them in the integer weight V = 2W


def _identity_sides_in_w(u, m):
    w = half_one_plus_norm_sq(u.num_vars)
    delta_m_u = iterated_laplacian(u, m)
    lhs = laplacian(w ** (m + 1) * delta_m_u)
    if m >= 1:
        lhs = lhs + (w ** (m - 1) * delta_m_u).scaled(Fraction(m * (m + 1)))
    return lhs, w**m * iterated_laplacian(w * u, m + 1)


def _product_sides_in_w(u, k):
    n = u.num_vars
    w = half_one_plus_norm_sq(n)
    lhs = iterated_laplacian(w * u, k)
    rhs = iterated_laplacian(u, k - 1).scaled(Fraction(k * (2 * k + n - 2)))
    cross = const(n, 0)
    for i in range(n):
        cross = cross + var(n, i) * iterated_laplacian(partial(u, i), k - 1)
    return lhs, rhs + cross.scaled(Fraction(2 * k)) + w * iterated_laplacian(u, k)


def _all_int(*polys):
    return all(type(c) is int for p in polys for c in p.terms.values())


def test_integer_weight_sides_are_scaled_fraction_weight_sides():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for m in range(5):
            for _ in range(2):
                u = random_polynomial(n, rng.randint(0, 6), rng)
                lhs, rhs = identity_2_1_sides(u, m)
                lhs_w, rhs_w = _identity_sides_in_w(u, m)
                assert _all_int(lhs, rhs)
                assert lhs == lhs_w.scaled(2 ** (m + 1)) and rhs == rhs_w.scaled(2 ** (m + 1))
                assert check_identity_2_1(u, m)[1] == lhs_w - rhs_w
                k = max(1, m)
                lhs, rhs = delta_k_product_sides(u, k)
                lhs_w, rhs_w = _product_sides_in_w(u, k)
                assert _all_int(lhs, rhs)
                assert lhs == lhs_w.scaled(2) and rhs == rhs_w.scaled(2)


def test_integer_input_keeps_int_coefficients():
    rng = random.Random(4)
    for n in (1, 2, 3):
        p = random_polynomial(n, 6, rng)
        q = random_polynomial(n, 4, rng)
        assert _all_int(p, q, p * q, p + q, p - q, laplacian(p), p**2)
        assert _all_int(*(partial(p, i) for i in range(n)))
        assert _all_int(const(n, 3), var(n, 0))
