import math

import numpy as np
import pytest

from confsphere.errors import PrecondViolated, SupportViolation
from confsphere.flatcheck import (
    admissible_random_function,
    chart_weight_energy,
    conjugation_check,
    flat_energy_identity,
    smooth_bump,
)
from confsphere.spectral import (
    SpectralFunction,
    analyze,
    circle_quadrature,
    constant_function,
    harmonic_basis_function,
    synthesize,
)


def one_minus_cos(degree=32):
    return constant_function(1, 1.0, degree) - harmonic_basis_function(1, 1, degree).scaled(
        math.sqrt(math.pi)
    )


def test_golden_case_first_order():
    report = flat_energy_identity(one_minus_cos(), 1)
    assert abs(report.sphere_energy - math.pi / 4) < 1e-12
    assert abs(report.flat_energy - math.pi / 4) < 1e-8
    assert report.rel_error < 1e-8


def test_second_order_squared_case():
    # (1 - cos)^2 = 3/2 - 2 cos + cos(2)/2, so by Parseval
    # E_4 = (9/16)(9 pi/2) - (15/16)(4 pi) + (105/16)(pi/4) = 27 pi/64
    u = one_minus_cos(48)
    rule = circle_quadrature(8 * 49)
    sq = analyze(synthesize(u, rule.nodes) ** 2, rule, 48)
    report = flat_energy_identity(sq, 2)
    assert abs(report.sphere_energy - 27 * math.pi / 64) < 1e-12
    assert report.rel_error < 1e-6


def test_vanishing_preconditions():
    with pytest.raises(PrecondViolated):
        flat_energy_identity(constant_function(1, 1.0, 16), 1)
    # u(N) = 0 but u'(N) != 0 fails the second-order hypothesis
    u = harmonic_basis_function(1, 1, 16, component="sin")
    with pytest.raises(PrecondViolated):
        flat_energy_identity(u, 2)


def test_only_low_orders_supported():
    with pytest.raises(ValueError):
        flat_energy_identity(one_minus_cos(), 3)


def test_random_admissible_nonnegative_and_matching():
    # functions vanishing at the pole have nonnegative energy, equal to
    # the manifestly nonnegative flat integral
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = admissible_random_function(64, 1, rng)
        report = flat_energy_identity(u, 1)
        assert report.flat_energy >= 0.0
        assert report.sphere_energy >= -1e-10
        assert report.rel_error < 1e-6


def test_random_admissible_second_order():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = admissible_random_function(64, 2, rng)
        report = flat_energy_identity(u, 2)
        assert report.flat_energy >= 0.0
        assert report.rel_error < 1e-6


def test_chart_weight_energy_is_null():
    # the equality case: E_2 of (1 + |pi_N|^2)^{-1/2} vanishes
    assert abs(chart_weight_energy()) < 1e-8


def test_conjugation_first_order():
    rule = circle_quadrature(8 * 97)
    w = analyze(smooth_bump(rule.nodes) * np.cos(rule.nodes), rule, 96)
    assert conjugation_check(w, 1) < 1e-5


def test_conjugation_second_order():
    rule = circle_quadrature(8 * 97)
    w = analyze(smooth_bump(rule.nodes), rule, 96)
    assert conjugation_check(w, 2) < 1e-5


def test_conjugation_zero_function():
    zero = SpectralFunction(1, np.zeros(33))
    assert conjugation_check(zero, 1) == 0.0


def test_conjugation_support_violation():
    with pytest.raises(SupportViolation):
        conjugation_check(constant_function(1, 1.0, 32), 1)


def test_smooth_bump_support():
    theta = np.linspace(0, 2 * math.pi, 1001)
    vals = smooth_bump(theta)
    near = np.minimum(theta, 2 * math.pi - theta) < 0.55
    assert np.max(np.abs(vals[near])) == 0.0
    assert np.max(vals) > 0.9
