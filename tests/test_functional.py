import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsphere import functional
from confsphere.errors import NonPositiveFunction
from confsphere.functional import (
    el_residual,
    energy,
    energy_quadratic,
    functional_report,
    functional_value,
    gradient,
    neg_power_norm,
    s1_energy_from_derivatives,
)
from confsphere.gjms import packed_multipliers
from confsphere.mobius import extremal
from confsphere.spectral import (
    SpectralFunction,
    circle_quadrature,
    constant_function,
    discretization,
    harmonic_basis_function,
    random_band_limited,
    random_positive_function,
)

TWO_PI = 2 * math.pi


def cos_theta(degree=16):
    return harmonic_basis_function(1, 1, degree).scaled(math.sqrt(math.pi))


def sin_theta(degree=16):
    return harmonic_basis_function(1, 1, degree, component="sin").scaled(math.sqrt(math.pi))


def test_energy_of_constants():
    one = constant_function(1, 1.0, 8)
    assert abs(energy(one, one, 1) + math.pi / 2) < 1e-13


def test_energy_of_sin_m2():
    s = sin_theta()
    assert abs(energy_quadratic(s, 2) + 15 * math.pi / 16) < 1e-12


def test_energy_one_minus_cos():
    u = constant_function(1, 1.0, 16) - cos_theta()
    assert abs(energy_quadratic(u, 1) - math.pi / 4) < 1e-12


def test_energy_symmetry():
    rng = np.random.default_rng(0)
    u = random_band_limited(1, 12, 12, rng)
    v = random_band_limited(1, 12, 12, rng)
    assert energy(u, v, 2) == energy(v, u, 2)


def test_neg_power_norm_constants():
    one = constant_function(1, 1.0, 8)
    assert abs(neg_power_norm(one, 1) - TWO_PI) < 1e-12  # q = 2
    assert abs(neg_power_norm(one, 2) - TWO_PI**3) < 1e-9  # q = 2/3


def test_neg_power_norm_scaling():
    # homogeneity of degree -2 under u -> c u
    rng = np.random.default_rng(1)
    u = constant_function(1, 1.0, 16) + random_band_limited(1, 16, 6, rng).scaled(0.05)
    base = neg_power_norm(u, 2)
    for c in (0.5, 3.0):
        assert abs(neg_power_norm(u.scaled(c), 2) - base / c**2) / (base / c**2) < 1e-12


def test_functional_sharp_values_at_one():
    one = constant_function(1, 1.0, 16)
    assert abs(functional_value(one, 1) + math.pi**2) / math.pi**2 < 1e-10
    assert abs(functional_value(one, 2) - 9 * math.pi**4) / (9 * math.pi**4) < 1e-10
    assert abs(functional_value(one, 3) + 225 * math.pi**6) / (225 * math.pi**6) < 1e-10
    one3 = constant_function(3, 1.0, 16)
    target = -(15.0 / 16.0) * (2 * math.pi**2) ** (4.0 / 3.0)
    assert abs(functional_value(one3, 2) - target) / abs(target) < 1e-10


def test_positivity_gate():
    with pytest.raises(NonPositiveFunction):
        functional_value(sin_theta(), 2)
    with pytest.raises(NonPositiveFunction):
        neg_power_norm(constant_function(1, 0.0, 8), 1)


def test_gate_tests_the_poles_without_looking_up_its_own_grid(monkeypatch):
    # u = s - Z_16 is positive on the Gauss-Jacobi nodes and negative at
    # t = 1; handed the 4x discretization, the gate needs no cache lookup
    disc = discretization(3, 16, 4)
    z = disc.grid_basis[16]
    c = np.zeros(17)
    c[0] = 0.5 * (z[1:-1].max() + z[-1]) / disc.grid_basis[0, 0]
    c[16] = -1.0
    assert disc.values(c).min() > 0.0
    lookups = []
    real = functional.discretization
    monkeypatch.setattr(functional, "discretization", lambda *a, **k: lookups.append(a) or real(*a, **k))
    with pytest.raises(NonPositiveFunction):
        functional._positivity_gate(c, disc)
    assert lookups == []
    c[0] *= 3.0
    assert np.array_equal(functional._positivity_gate(c, disc), disc.values(c))
    assert lookups == []


def test_report_consistency():
    rng = np.random.default_rng(2)
    u = constant_function(1, 1.0, 24) + random_band_limited(1, 24, 8, rng).scaled(0.02)
    rep = functional_report(u, 1)
    assert rep.min_value > 0
    assert abs(rep.functional - rep.neg_norm * rep.energy) < 1e-12 * abs(rep.functional)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    u = constant_function(1, 1.0, 24) + random_band_limited(1, 24, 8, rng).scaled(0.1)
    g = gradient(u, 1)
    h = 1e-5
    for _ in range(10):
        d = random_band_limited(1, 24, 12, rng)
        d = d.scaled(1.0 / math.sqrt(d.norm_sq()))
        fd = (functional_value(u + d.scaled(h), 1) - functional_value(u - d.scaled(h), 1)) / (2 * h)
        an = float(g.coeffs @ d.coeffs)
        assert abs(fd - an) / max(abs(fd), 1e-12) < 1e-5


def test_gradient_vanishes_at_constants():
    one = constant_function(1, 1.0, 16)
    g = gradient(one, 1)
    # component orthogonal to u itself (criticality of constants)
    unit = one.coeffs / math.sqrt(one.norm_sq())
    ortho = g.coeffs - (g.coeffs @ unit) * unit
    assert float(np.linalg.norm(ortho)) < 1e-10
    assert float(np.linalg.norm(g.coeffs)) < 1e-10


def test_gradient_vanishes_on_extremal_family():
    u = extremal(1, 1, 32, lam=2.0)
    g = gradient(u, 1)
    assert float(np.linalg.norm(g.coeffs)) < 1e-7


def test_el_residual_zero_at_constants():
    one = constant_function(1, 1.0, 16)
    assert el_residual(one, 1) < 1e-12


def test_el_residual_zero_on_extremal():
    u = extremal(1, 1, 32, lam=2.0)
    assert el_residual(u, 1) < 1e-6


def test_el_residual_positive_off_family():
    u = constant_function(1, 1.0, 32) + cos_theta(32).scaled(0.3)
    r = el_residual(u, 1)
    assert r > 1e-3
    # frozen regression value for the reported residual
    assert abs(r - 0.11921447783301584) < 1e-12


def test_scale_invariance():
    rng = np.random.default_rng(4)
    u = constant_function(1, 1.0, 24) + random_band_limited(1, 24, 8, rng).scaled(0.1)
    base = functional_value(u, 1)
    for c in (0.1, 1.0, 7.0):
        assert abs(functional_value(u.scaled(c), 1) - base) / abs(base) < 1e-10


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 2), (3, 3)])
@settings(max_examples=25, deadline=None)
@given(log10_c=st.floats(-6.0, 150.0), seed=st.integers(0, 2**16))
@example(log10_c=1.0, seed=2997)
def test_scale_invariance_over_the_float_range(n, m, log10_c, seed):
    u = random_positive_function(n, 16, 6, np.random.default_rng(seed))
    base = functional_value(u, m)
    # E = sum p_a c_a^2 can cancel: its condition number kappa scales the
    # rounding of E, and so of I, relative to |I| (seed 2997 at (1, 1):
    # I ~ -0.003, kappa ~ 7700)
    p = packed_multipliers(n, m, u.degree)
    kappa = float(np.abs(p) @ u.coeffs**2) / abs(float(p @ u.coeffs**2))
    assert abs(functional_value(u.scaled(10.0**log10_c), m) - base) <= 1e-13 * abs(base) * kappa


@pytest.mark.parametrize("n,value,m", [(1, 1e200, 1), (9, 1e20, 5), (3, 1e150, 2)])
def test_functional_value_of_huge_constants(n, value, m):
    # u^{-q} underflows to zero at these scales
    base = functional_value(constant_function(n, 1.0, 16), m)
    assert abs(functional_value(constant_function(n, value, 16), m) - base) <= 1e-13 * abs(base)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 2), (3, 3)])
def test_local_minimality_at_one(n, m):
    rng = np.random.default_rng(100 + 10 * n + m)
    degree = 24
    one = constant_function(n, 1.0, degree)
    base = functional_value(one, m)
    for _ in range(200):
        phi = random_band_limited(n, degree, degree // 2, rng)
        phi = phi.scaled(1.0 / math.sqrt(phi.norm_sq()))
        for eps in (1e-2, 1e-3):
            gap = functional_value(one + phi.scaled(eps), m) - base
            assert gap >= -1e-9


def test_sharpness_quadratic_order():
    # perturbations orthogonal to constants and degree-1 harmonics
    rng = np.random.default_rng(5)
    degree = 32
    one = constant_function(1, 1.0, degree)
    base = functional_value(one, 1)
    phi = random_band_limited(1, degree, 10, rng)
    coeffs = phi.coeffs.copy()
    coeffs[:3] = 0.0
    phi = SpectralFunction(1, coeffs)
    phi = phi.scaled(1.0 / math.sqrt(phi.norm_sq()))
    eps = np.array([1e-3, 3e-3, 1e-2])
    gaps = np.array([functional_value(one + phi.scaled(e), 1) - base for e in eps])
    slope = np.polyfit(np.log(eps), np.log(np.abs(gaps)), 1)[0]
    assert slope >= 1.9


def test_s1_derivative_form_energy():
    # E_4(sin) from pointwise derivatives matches the spectral value
    rule = circle_quadrature(256)
    th = rule.nodes
    vals = [np.sin(th), np.cos(th), -np.sin(th)]
    flat = s1_energy_from_derivatives(vals, 2, rule)
    assert abs(flat + 15 * math.pi / 16) < 1e-12
    spectral = energy_quadratic(sin_theta(), 2)
    assert abs(flat - spectral) < 1e-12
