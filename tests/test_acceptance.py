"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured output); a failed assertion marks the criterion failed.
"""

import math
import random
from fractions import Fraction

import numpy as np

from confsphere.extremize import OptimizerConfig, minimize
from confsphere.flatcheck import admissible_random_function, chart_weight_energy, flat_energy_identity
from confsphere.functional import energy_quadratic, functional_value
from confsphere.geometry import AxisDilation, north_pole, sphere_measure
from confsphere.gjms import (
    green_closed_values,
    green_series_values,
    green_spectral,
    kernel_degrees,
    multiplier,
    reproduce_at_pole,
)
from confsphere.mobius import pullback
from confsphere.polyident import (
    check_delta_k_product,
    check_identity_2_1,
    random_polynomial,
)
from confsphere.spectral import (
    constant_function,
    harmonic_basis_function,
    integrate,
    quadrature_for_degree,
    random_band_limited,
    random_positive_function,
    synthesize,
)
from confsphere.stability import h2_eigenvalue_closed, h3_eigenvalue_closed, hessian_spectrum


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS: {text}")


def random_positive_start(n, degree, seed, max_degree=8):
    rng = np.random.default_rng(seed)
    return random_positive_function(n, degree, max_degree, rng)


def test_criterion_01_sharp_constant_first_order():
    target = -math.pi**2
    one = constant_function(1, 1.0, 32)
    value = functional_value(one, 1)
    assert abs(value - target) / abs(target) < 1e-10
    for seed in range(5):
        trace = minimize(random_positive_start(1, 32, seed), 1, OptimizerConfig(degree=32, max_iter=300))
        assert abs(trace.values[-1] - target) / abs(target) < 1e-6, seed
    _report(1, f"I(1) = -pi^2 and 5 seeded descents reach it (last: {trace.values[-1]:.12g})")


def test_criterion_02_sharp_constant_second_order():
    target = 9 * math.pi**4
    one = constant_function(1, 1.0, 32)
    value = functional_value(one, 2)
    assert abs(value - target) / target < 1e-10
    for seed in (7, 8):
        trace = minimize(random_positive_start(1, 32, seed), 2, OptimizerConfig(degree=32, max_iter=400))
        assert abs(trace.values[-1] - target) / target < 1e-5, seed
    _report(2, f"I(1) = 9 pi^4 and seeded descents reach it (last: {trace.values[-1]:.12g})")


def test_criterion_03_closed_forms_dimension_three():
    mu = sphere_measure(3)
    # independent exact-rational-times-power evaluation of the closed forms
    frac2 = -Fraction(math.factorial(6), 2**7 * math.factorial(3))
    target2 = float(frac2) * mu ** (4.0 / 3.0)
    got2 = functional_value(constant_function(3, 1.0, 16), 2)
    assert abs(got2 - target2) / abs(target2) < 1e-10
    frac3 = Fraction(3 * math.factorial(7), 2**9 * math.factorial(3))
    target3 = float(frac3) * mu**2
    got3 = functional_value(constant_function(3, 1.0, 16), 3)
    assert abs(got3 - target3) / target3 < 1e-10
    _report(3, f"n=3 constants match closed forms: {got2:.12g}, {got3:.12g}")


def test_criterion_04_mobius_covariance_of_functional():
    worst = 0.0
    rng = np.random.default_rng(42)
    for _ in range(50):
        u = random_positive_function(1, 64, 10, rng)
        lam = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        base = functional_value(u, 1)
        moved = functional_value(pullback(u, AxisDilation(north_pole(1), lam), 1), 1)
        worst = max(worst, abs(moved - base) / abs(base))
    for m in (2, 3):
        for _ in range(10):
            u = random_positive_function(3, 64, 10, rng)
            lam = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            base = functional_value(u, m)
            moved = functional_value(pullback(u, AxisDilation(u.axis, lam), m), m)
            worst = max(worst, abs(moved - base) / abs(base))
    assert worst < 1e-6
    _report(4, f"70 conformal pullbacks leave I invariant (worst drift {worst:.2e})")


def test_criterion_05_instability_trichotomy_exact():
    for n in (1, 3, 5):
        for m in range((n + 1) // 2, 9):
            if not 2 * m > n:
                continue
            spec = hessian_spectrum(n, m, 24)
            assert spec.eigenvalues[0] == 0
            assert spec.eigenvalues[1] == 0
            assert spec.has_negative == (m >= (n + 5) // 2), (n, m)
    s13 = hessian_spectrum(1, 3, 8)
    assert s13.eigenvalues[2] == Fraction(-315, 16) == h2_eigenvalue_closed(1, 3)
    s14 = hessian_spectrum(1, 4, 8)
    assert s14.eigenvalues[3] == Fraction(-945, 2) == h3_eigenvalue_closed(1, 4)
    _report(5, "exact spectra: negatives exactly when m >= (n+5)/2; -315/16 and -945/2 confirmed")


def test_criterion_06_even_dimension_kernel_exact():
    for n in (2, 4):
        for m in range(1, 9):
            expected = set(range(0, m - n // 2 + 1))
            assert kernel_degrees(n, m) == expected, (n, m)
            if m > n // 2:
                for a in range(0, 100):
                    assert multiplier(n, m, a) >= 0
    for n in (1, 3, 5):
        for m in range(1, 9):
            assert kernel_degrees(n, m) == set()
    _report(6, "kernels are {0..m-n/2} for even n with nonnegative multipliers; none for odd n")


def test_criterion_07_descent_below_constant():
    degree = 32
    base = functional_value(constant_function(1, 1.0, degree), 3)
    u0 = constant_function(1, 1.0, degree) + harmonic_basis_function(1, 2, degree).scaled(0.05)
    best = []
    for max_iter in (6, 12, 24):
        trace = minimize(u0, 3, OptimizerConfig(degree=degree, max_iter=max_iter))
        for a, b in zip(trace.values, trace.values[1:]):
            assert b <= a
        best.append(trace.best_value)
    assert best[0] <= 1.01 * base  # base < 0, so this is at least 1% below
    assert best[1] < best[0] and best[2] < best[1]
    _report(7, f"descent passes 1% below I(1) and deepens with budget ({best[-1]:.6g} vs {base:.6g})")


def test_criterion_08_flat_energy_identity():
    golden = constant_function(1, 1.0, 32) - harmonic_basis_function(1, 1, 32).scaled(math.sqrt(math.pi))
    report = flat_energy_identity(golden, 1)
    assert abs(report.sphere_energy - math.pi / 4) < 1e-8
    assert abs(report.flat_energy - math.pi / 4) < 1e-8
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        u = admissible_random_function(64, 1, rng)
        rep = flat_energy_identity(u, 1)
        assert rep.flat_energy >= 0.0
        worst = max(worst, rep.rel_error)
    assert worst < 1e-6
    _report(8, f"golden case pi/4 on both sides; 100 random cases match (worst {worst:.2e})")


def test_criterion_09_null_vector_of_order_two_energy():
    value = chart_weight_energy()
    assert abs(value) < 1e-8
    _report(9, f"E_2 of the chart weight function is {value:.2e}")


def test_criterion_10_polynomial_identities_exact():
    rng = random.Random(1)
    checked = 0
    for n in (1, 2, 3):
        for m in range(0, 5):
            for _ in range(4):
                u = random_polynomial(n, 6, rng)
                ok, residual = check_identity_2_1(u, m)
                assert ok and residual.is_zero, (n, m)
                assert check_delta_k_product(u, max(1, m))
                checked += 1
    assert checked >= 50
    _report(10, f"{checked} randomized induction identities hold exactly")


def test_criterion_11_green_function():
    rng = np.random.default_rng(2)
    green = green_spectral(1, 1, 64)
    worst = 0.0
    for _ in range(20):
        u = random_band_limited(1, 64, 32, rng) + constant_function(1, 1.0, 64)
        predicted = reproduce_at_pole(green, u, 1)
        actual = float(synthesize(u, np.array([0.0]))[0])
        worst = max(worst, abs(predicted - actual))
    assert worst < 1e-8
    ts = np.linspace(-0.95, 0.75, 10)
    ratio = green_closed_values(1, 1, ts) / green_series_values(1, 1, ts)
    spread = float(np.max(ratio) - np.min(ratio))
    assert spread < 1e-6
    assert abs(float(np.mean(ratio)) - 1.0) < 1e-6
    _report(
        11,
        f"spectral kernel reproduces point values ({worst:.2e}); closed/spectral ratio "
        f"constant = {float(np.mean(ratio)):.12g}",
    )


def test_criterion_12_sin_counterexample():
    sin_theta = harmonic_basis_function(1, 1, 32, component="sin").scaled(math.sqrt(math.pi))
    e4 = energy_quadratic(sin_theta, 2)
    target = -15 * math.pi / 16
    assert abs(e4 - target) < 1e-10
    assert e4 < 0
    # the negative-power integral of |sin|^{-2/3} is finite (Beta closed form)
    norm_integral = 2.0 * math.gamma(0.5) * math.gamma(1.0 / 6.0) / math.gamma(2.0 / 3.0)
    assert math.isfinite(norm_integral) and norm_integral > 0
    left_side = norm_integral**3 * e4
    assert left_side < 0 and math.isfinite(left_side)
    _report(12, f"E_4(sin) = {e4:.12g} < 0 with finite norm factor: left side {left_side:.6g}")


def test_criterion_13_quadrature_sanity():
    for n in (1, 3, 5):
        rule = quadrature_for_degree(n, 32)
        mu = sphere_measure(n)
        assert abs(integrate(np.ones(rule.size), rule) - mu) / mu < 1e-12
    rng = np.random.default_rng(3)
    for n, degree in ((1, 64), (3, 48), (5, 32)):
        u = random_band_limited(n, degree, degree, rng)
        rule = quadrature_for_degree(n, degree, oversample=2)
        vals = synthesize(u, rule.nodes)
        assert abs(integrate(vals * vals, rule) - u.norm_sq()) / u.norm_sq() < 1e-10
    _report(13, "quadrature reproduces sphere measures at 1e-12 and Parseval at 1e-10")
