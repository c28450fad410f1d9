import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsphere import functional, spectral
from confsphere.errors import ConfSphereError, NonPositiveFunction
from confsphere.extremize import OptimizerConfig, minimize
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
from confsphere.mobius import barycenter, extremal, find_center
from confsphere.spectral import (
    Discretization,
    SpectralFunction,
    basis_matrix,
    circle_quadrature,
    constant_function,
    discretization,
    harmonic_basis_function,
    min_on_grid,
    random_band_limited,
    random_positive_function,
)
import layered_evaluation as layered
from layered_evaluation import logging_evaluator, positivity_gate

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


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("degree", [16, 32, 64])
def test_energy_quadratic_keeps_the_bits_of_energy(n, m, degree):
    # the quadratic form skips the alignment's zero-padded copies; its
    # products and their sum are those of the bilinear form
    rng = np.random.default_rng(10 * degree + n + m)
    for _ in range(5):
        u = random_positive_function(n, degree, degree // 2, rng, amplitude=float(rng.uniform(0.2, 0.9)))
        assert energy_quadratic(u, m).hex() == energy(u, u, m).hex()


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
    # u = s - Z_16 is positive on every node but the poles and negative at
    # t = 1, the first node; the gate is the 4x discretization's own, the one
    # the evaluator holds, and needs no cache lookup
    disc = discretization(3, 16, 4)
    assert functional.evaluator(3, 2, 16).disc is disc
    assert (disc.rule.nodes[0], disc.rule.nodes[-1]) == (1.0, -1.0)
    c = np.zeros(17)
    c[0] = 0.5 * (disc.basis[16, 1:-1].max() + disc.basis[16, 0]) / disc.basis[0, 0]
    c[16] = -1.0
    assert disc.basis.T.dot(c)[1:-1].min() > 0.0 > disc.basis.T.dot(c)[0]
    lookups = []
    real = spectral.discretization
    monkeypatch.setattr(spectral, "discretization", lambda *a, **k: lookups.append(a) or real(*a, **k))
    with pytest.raises(NonPositiveFunction):
        disc.gate(c)
    assert lookups == []
    c[0] *= 3.0
    vals, low, high = disc.gate(c)
    assert np.array_equal(vals, disc.basis.T.dot(c))
    assert (low, high) == (vals.min(), vals.max())
    assert low == vals[0] == vals[-1] < vals[1:-1].min()
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


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 2), (3, 3)])
@settings(max_examples=25, deadline=None)
@given(log10_k=st.floats(-3.0, 3.0), seed=st.integers(0, 2**16))
def test_gradient_is_homogeneous_of_degree_minus_one(n, m, log10_k, seed):
    # I(c u) = I(u) gives grad I(u / k) = k grad I(u), the identity by which
    # minimize carries its curvature pair through the rescale to maximum
    # one.  Measured worst over 1,200 draws: 2.2e-15 relative
    u = random_positive_function(n, 16, 6, np.random.default_rng(seed))
    k = 10.0**log10_k
    g = gradient(u, m).coeffs
    assert np.linalg.norm(gradient(u.scaled(1.0 / k), m).coeffs - k * g) <= 1e-13 * k * np.linalg.norm(g)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 2), (3, 3)])
@settings(max_examples=25, deadline=None)
@given(log10_c=st.floats(-150.0, 150.0), seed=st.integers(0, 2**16))
def test_norm_residual_and_gradient_are_homogeneous(n, m, log10_c, seed):
    # the gate is relative and each entry point is taken at minimum one and
    # rescaled: I(cu) = I(u), |(cu)^-1|^2 = c^-2 |u^-1|^2, el_residual(cu) =
    # c el_residual(u), grad I(cu) = grad I(u) / c, and the Mobius center of
    # cu is that of u.  Measured worst over 160 draws: 8.8e-15 relative for
    # I and E (cancellation in E, scaled here by its condition number kappa),
    # at most 1.1e-15 for the others and 2.5e-16 for the center
    u = random_positive_function(n, 16, 6, np.random.default_rng(seed))
    c = 10.0**log10_c
    cu = u.scaled(c)
    p = packed_multipliers(n, m, u.degree)
    kappa = float(np.abs(p) @ u.coeffs**2) / abs(float(p @ u.coeffs**2))
    assert abs(functional_value(cu, m) - functional_value(u, m)) <= 1e-13 * abs(functional_value(u, m)) * kappa
    assert abs(neg_power_norm(cu, m) * c * c - neg_power_norm(u, m)) <= 1e-13 * neg_power_norm(u, m)
    assert abs(el_residual(cu, m) / c - el_residual(u, m)) <= 1e-13 * el_residual(u, m)
    g = gradient(u, m).coeffs
    assert np.linalg.norm(gradient(cu, m).coeffs * c - g) <= 1e-13 * np.linalg.norm(g)
    base, scaled = functional_report(u, m), functional_report(cu, m)
    assert abs(scaled.energy / c / c - base.energy) <= 1e-13 * abs(base.energy) * kappa
    assert abs(scaled.neg_norm * c * c - base.neg_norm) <= 1e-13 * base.neg_norm
    assert abs(scaled.functional - base.functional) <= 1e-13 * abs(base.functional) * kappa
    assert abs(scaled.el_residual / c - base.el_residual) <= 1e-13 * base.el_residual
    assert abs(scaled.min_value / c - base.min_value) <= 1e-13 * base.min_value
    center, scaled_center = find_center(u, m), find_center(cu, m)
    assert scaled_center.converged == center.converged
    assert np.max(np.abs(scaled_center.a - center.a)) <= 1e-13


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (5, 3)])
@pytest.mark.parametrize("L", [0, 1, 8, 32, 128])
def test_grid_minimum_is_the_least_value_on_nodes_and_poles(monkeypatch, n, m, L):
    # oracle: one basis matrix on the rule nodes, which include t = -1 and 1
    # on a zonal rule.  min_on_grid, the gate and the report's min_value
    # agree with it; a kernel dip centred at each pole (at th = pi, 0 on the
    # circle, off its nodes) puts a zonal minimum there, at the end nodes,
    # below every other node.  The gate's grid minimum is the least of the
    # values it synthesized, in one product, and the second entry of what it returns
    disc = discretization(n, L, 4)
    grid = disc.rule.nodes
    if n != 1:
        assert (grid[0], grid[-1]) == (1.0, -1.0)
    oracle = basis_matrix(n, L, grid)
    ends = basis_matrix(n, L, np.array([math.pi, 0.0] if n == 1 else [-1.0, 1.0]))
    products = []
    ev = logging_evaluator(monkeypatch, n, m, L, products)
    rng = np.random.default_rng(L + n)
    one = constant_function(n, 1.0, L)
    draws = [random_positive_function(n, L, max(L // 2, 1), rng) for _ in range(4)]
    for end in range(2):
        kernel = ends[:, end] / float(ends[:, end] @ ends[:, end])
        draws += [one - SpectralFunction(n, depth * kernel, one.axis) for depth in (0.5, 2.0)]
    for i, u in enumerate(draws):
        c = u.coeffs
        values = oracle.T @ c
        expected, bound = float(values.min()), 1e-15 * float(np.abs(values).max())
        if n != 1 and L >= 1 and i >= 4:
            assert values[[0, -1]].min() < values[1:-1].min()
        low = min_on_grid(u)
        assert abs(low - expected) <= bound
        products.clear()
        passed = ev.disc.gate(c, refuse=False)
        assert [(tag, x is c) for tag, x, _ in products] == [("values", True)]
        assert min(float(out.min()) for _, _, out in products) == low
        if passed is not None:
            assert passed[1] == low
            assert functional_report(u, m).min_value == low
        assert (passed is not None) == (low > 0)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2)])
@pytest.mark.parametrize("ratio", [1e-6 * (1 + 1e-3), 1e-6 * (1 - 1e-3)], ids=["above", "below"])
def test_one_relative_gate_decides_at_every_scale(n, m, ratio):
    # u is shifted so that its grid minimum over its node maximum is ratio,
    # just above or just below the floor; every entry point, minimize's start
    # among them, decides as the gate does, at any scale
    disc = discretization(n, 32, 4)
    bump = random_positive_function(n, 32, 8, np.random.default_rng(5))
    _, low, high = disc.scan(bump.coeffs)
    u = bump + constant_function(n, (ratio * high - low) / (1.0 - ratio), 32)
    _, low, high = disc.scan(u.coeffs)
    assert abs(low / high / ratio - 1.0) < 1e-6
    descent = lambda v, m: minimize(v, m, OptimizerConfig(degree=32, max_iter=1))
    for scale in (1e-12, 1.0, 1e150):
        for entry in (functional_value, neg_power_norm, el_residual, gradient, functional_report, find_center, descent):
            if ratio > spectral.POSITIVITY_FLOOR:
                entry(u.scaled(scale), m)
            else:
                with pytest.raises(NonPositiveFunction, match="positivity floor"):
                    entry(u.scaled(scale), m)


def _bits(x):
    """x as bytes, an array's or a float's, to compare two results bit for bit."""
    return x.tobytes() if isinstance(x, np.ndarray) else float.hex(x)


def _same_terms(got, want):
    assert len(got) == len(want)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (3, 2), (3, 4)])
@pytest.mark.parametrize("L", [16, 32])
def test_evaluator_keeps_the_bits_of_the_layered_evaluation(n, m, L):
    # the evaluator runs the float operations of the gate, the value terms,
    # the gradient kernel and the volume as the layered reference composes
    # them from the discretization, the multipliers and q: every entry has
    # the reference's bits, at node minimum one (the entry points), at
    # maximum one (the descent) and at any scale, in the stable and the
    # unstable orders of both representations
    ev = functional.evaluator(n, m, L)
    disc, p, q = layered.layers(n, m, L)
    assert (ev.disc, ev.p, ev.q) == (disc, p, q)
    rng = np.random.default_rng(100 * n + 10 * m + L)
    for _ in range(4):
        u = random_positive_function(n, L, L // 4, rng)
        for scale in (1e-12, 1.0, 1e150):
            c = u.coeffs * scale
            gated, want = disc.gate(c), layered.positivity_gate(c, disc)
            _same_terms(gated, want)
            vals, low, high = gated
            at_min = layered.terms_at_minimum(c, n, m, L)
            _same_terms(ev.terms(c, vals, low) + (low, low), at_min)
            terms = functional.neg_power_integral(u.scaled(scale), m)
            _same_terms(terms[:9], at_min)
            _same_terms([ev.gradient(at_min)], [layered.step_terms(at_min, disc, q)])
            at_max = layered.terms_at_maximum(c, n, m, L)
            _same_terms(ev.terms(c, vals, high) + (high, low / high), at_max)
            _same_terms([ev.gradient(at_max)], [layered.step_terms(at_max, disc, q)])
            # the gauge's volume on the nodes, (u / k)^{-q} over its integral
            _same_terms([terms[5] / terms[6]], [layered.volume(c, n, m, L)])
            k = at_min[7]
            with np.errstate(over="ignore"):
                _same_terms([gradient(u.scaled(scale), m).coeffs], [layered.step_terms(at_min, disc, q) / k])
            # the descent's first row is read from the terms at maximum one
            trace = minimize(SpectralFunction(n, c, u.axis), m, OptimizerConfig(degree=L, max_iter=1))
            row = (trace.values[0], trace.min_values[0], trace.grad_norms[0])
            grad = layered.step_terms(at_max, disc, q)
            _same_terms(row, (at_max[2], at_max[8], math.sqrt(float(grad.dot(grad)))))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (3, 2), (3, 4)])
def test_a_start_next_to_the_floor_is_gated_again_with_the_layered_bits(monkeypatch, n, m):
    # a grid minimum within 1e-3 of the floor at maximum one sends the
    # start through the second gate, on c / cmax: the descent gates twice
    # before its first row, the second time on the reference's c / cmax, and
    # its row has the reference's bits
    disc = discretization(n, 32, 4)
    bump = random_positive_function(n, 32, 8, np.random.default_rng(5))
    _, low, high = disc.scan(bump.coeffs)
    ratio = spectral.POSITIVITY_FLOOR * (1 + 5e-4)
    u = bump + constant_function(n, (ratio * high - low) / (1.0 - ratio), 32)
    gates = []
    real = Discretization.gate
    monkeypatch.setattr(Discretization, "gate", lambda self, c, refuse=True: gates.append(c) or real(self, c, refuse))
    for scale in (1e-12, 1.0, 1e150):
        c = u.coeffs * scale
        want = layered.terms_at_maximum(c, n, m, 32, refuse=True)
        gates.clear()
        trace = minimize(SpectralFunction(n, c, u.axis), m, OptimizerConfig(degree=32, max_iter=1))
        assert len(gates) >= 2 and gates[0] is c
        _same_terms([gates[1]], [want[0]])
        grad = layered.step_terms(want, disc, functional.exponent_q(n, m))
        row = (trace.values[0], trace.min_values[0], trace.grad_norms[0])
        _same_terms(row, (want[2], want[8], math.sqrt(float(grad.dot(grad)))))


@pytest.mark.parametrize("n,m", [(1, 2), (3, 2)])
def test_tiny_scales_are_finite_or_refused(n, m):
    # at 1e-200 the node minimum k is normal but k * k underflows: the norm
    # overflows to inf, never a division by zero, and the report refuses it.
    # At 1e-305 I is still taken, but grad I(u) / k overflows.  At 1e-310
    # the minimum is subnormal and 1 / k overflows: every entry point
    # refuses it at the gate
    one = functional_value(constant_function(n, 1.0, 16), m)
    u = constant_function(n, 1e-200, 16)
    assert abs(functional_value(u, m) - one) <= 1e-13 * abs(one)
    assert neg_power_norm(u, m) == math.inf
    with pytest.raises(ConfSphereError, match="overflows"):
        functional_report(u, m)
    u = random_positive_function(n, 16, 6, np.random.default_rng(0))
    assert abs(functional_value(u.scaled(1e-305), m) - functional_value(u, m)) <= 1e-13 * abs(functional_value(u, m))
    with pytest.raises(ConfSphereError, match="gradient overflows"):
        gradient(u.scaled(1e-305), m)
    u = constant_function(n, 1e-310, 16)
    for entry in (functional_value, neg_power_norm, el_residual, gradient, functional_report, find_center):
        with pytest.raises(NonPositiveFunction, match="normal float"):
            entry(u, m)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2)])
def test_report_min_value_is_the_grid_minimum_of_its_gate(monkeypatch, n, m):
    # the report's min_value is the grid minimum its one gate took, with the
    # bits of min_on_grid, at any scale; no second grid minimum is taken:
    # the report scans the grid once (the scan of its discretization, which
    # the gate calls), with one product of the basis on its nodes and u
    rng = np.random.default_rng(17 + n)
    draws = [random_positive_function(n, L, 8, rng) for L in (8, 32, 64)]
    draws += [u.scaled(scale) for u in draws for scale in (1e-100, 1e100)]
    products = []
    for L in (8, 32, 64):
        logging_evaluator(monkeypatch, n, m, L, products)
    seen = []
    real = Discretization.scan
    monkeypatch.setattr(Discretization, "scan", lambda self, c: seen.append(c) or real(self, c))
    for u in draws:
        want = float.hex(min_on_grid(u))
        seen.clear()
        products.clear()
        assert float.hex(functional_report(u, m).min_value) == want
        assert len(seen) == 1 and seen[0] is u.coeffs
        assert sum(x is u.coeffs for _, x, _ in products) == 1


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2)])
def test_each_entry_point_synthesizes_u_once(monkeypatch, n, m):
    # one gate per entry point: u is scanned once on the 4x grid (by the scan
    # of its discretization, which the gate calls), its nodes
    # synthesized by the discretization's transposed basis, and the residual
    # and the report synthesize P_2m u besides; no entry point synthesizes
    # otherwise
    u = random_positive_function(n, 32, 8, np.random.default_rng(0))
    log, scans = [], []
    logging_evaluator(monkeypatch, n, m, 32, log)
    real = Discretization.scan
    monkeypatch.setattr(Discretization, "scan", lambda self, c: scans.append(c) or real(self, c))
    entries = {
        functional_value: 1,
        neg_power_norm: 1,
        gradient: 1,
        find_center: 1,
        lambda u, m: barycenter(u, np.zeros(n + 1), m): 1,
        el_residual: 2,
        functional_report: 2,
    }
    for entry, count in entries.items():
        log.clear()
        scans.clear()
        entry(u, m)
        calls = [c for tag, c, _ in log if tag == "values"]
        assert len(calls) == count and calls[0] is u.coeffs
        assert len(scans) == 1 and scans[0] is u.coeffs


def two_gate_norm_and_value(u, m):
    """|u^{-1}|^2_{L^q}, I(u) and the scale of the terms of I by the two-gate formula.

    The oracle of the one gated evaluation: u is gated on its 4x nodes and
    divided by its node minimum k; u / k is then synthesized and gated again,
    and the integral of (u / k)^{-q} with p . (c c) gives the norm and I.
    neg_power_integral instead divides the first synthesis by k and takes E
    as (p c) . c, so the two agree to rounding in |u^{-1}|^2 (|p| . (c c)),
    which is |I| unless E cancels.
    """
    disc = discretization(u.n, u.degree, 4)
    k = positivity_gate(u.coeffs, disc)[1]
    v = u.scaled(1.0 / k)
    q = functional.exponent_q(u.n, m)
    vals = positivity_gate(v.coeffs, disc)[0]
    norm = math.exp((2.0 / q) * math.log(float(disc.rule.weights @ vals ** (-q))))
    terms = float(np.abs(packed_multipliers(u.n, m, u.degree)) @ (v.coeffs * v.coeffs))
    return norm / k / k, norm * energy_quadratic(v, m), norm * terms


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 2), (3, 3), (3, 4)])
@settings(max_examples=25, deadline=None)
@given(log10_c=st.floats(-150.0, 150.0), seed=st.integers(0, 2**16))
@example(log10_c=49.42166566606426, seed=32353)  # at (1, 1) E cancels: I = -2.1e-3, its terms 23
def test_one_gate_agrees_with_the_two_gate_formula(n, m, log10_c, seed):
    u = random_positive_function(n, 32, 8, np.random.default_rng(seed)).scaled(10.0**log10_c)
    norm, value, terms = two_gate_norm_and_value(u, m)
    assert abs(neg_power_norm(u, m) - norm) <= 4e-15 * norm
    assert abs(functional_value(u, m) - value) <= 4e-15 * terms


@pytest.mark.parametrize("n,value,m", [(1, 1e200, 1), (3, 1e150, 2)])
def test_report_of_huge_constants_is_finite_or_refused(n, value, m):
    # at 1e150 on S^3 every entry is finite; at 1e200 on S^1, E overflows
    u = constant_function(n, value, 16)
    if n == 3:
        report = functional_report(u, m)
        assert all(math.isfinite(x) for x in (report.energy, report.neg_norm, report.el_residual))
        assert abs(report.functional / functional_value(constant_function(n, 1.0, 16), m) - 1.0) <= 1e-13
    else:
        with pytest.raises(ConfSphereError):
            functional_report(u, m)


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
