import csv
import io
import math

import numpy as np
import pytest
from scipy.special import eval_gegenbauer
from scipy.special import roots_jacobi as scipy_roots_jacobi

from confsphere import spectral
from confsphere.cli import main
from confsphere.errors import AxisMismatch, InsufficientNodes
from confsphere.extremize import OptimizerConfig, minimize
from confsphere.gjms import apply_operator, packed_multipliers
from confsphere.geometry import axis_dilation_t_map, north_pole, sphere_measure, sphere_surface_area
from confsphere.mobius import _dilation_angle_map
from confsphere.spectral import (
    SpectralFunction,
    analyze,
    basis_matrix,
    circle_quadrature,
    clear_caches,
    constant_function,
    discretization,
    dumps,
    harmonic_basis_function,
    integrate,
    loads,
    min_on_grid,
    quadrature_for_degree,
    random_band_limited,
    random_positive_function,
    roots_jacobi,
    synthesize,
    zonal_quadrature,
)

TWO_PI = 2 * math.pi


def test_constant_basis_circle():
    u = SpectralFunction(1, np.array([math.sqrt(TWO_PI)]))
    theta = np.linspace(0, TWO_PI, 17)
    assert np.max(np.abs(synthesize(u, theta) - 1.0)) < 1e-14


def test_zonal_degree_one_odd_symmetry():
    u = harmonic_basis_function(3, 1, degree=4)
    v = synthesize(u, np.array([-1.0, 1.0]))
    assert abs(v[0] + v[1]) < 1e-14
    assert v[1] > 0


def test_zonal_matches_gegenbauer_recurrence_oracle():
    # independent oracle: scipy's Gegenbauer evaluation, normalized by
    # quadrature of its own square
    n, L = 3, 12
    nu = (n - 1) / 2
    rule = zonal_quadrature(n, 4 * (L + 1))
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(L + 1)
    u = SpectralFunction(n, coeffs, np.array([1.0, 0, 0, 0]))
    t = np.linspace(-0.99, 0.99, 31)
    expected = np.zeros_like(t)
    for a in range(L + 1):
        raw = eval_gegenbauer(a, nu, rule.nodes)
        norm = math.sqrt(float(rule.weights @ raw**2))
        expected += coeffs[a] * eval_gegenbauer(a, nu, t) / norm
    assert np.max(np.abs(synthesize(u, t) - expected)) < 1e-12


def test_analyze_synthesize_identity():
    rng = np.random.default_rng(1)
    for n, L in ((1, 24), (3, 16), (5, 10)):
        u = random_band_limited(n, L, L, rng)
        rule = quadrature_for_degree(n, L, oversample=2)
        rebuilt = analyze(synthesize(u, rule.nodes), rule, L, axis=u.axis)
        assert np.max(np.abs(rebuilt.coeffs - u.coeffs)) < 1e-10


def test_analyze_of_higher_degree_is_clean():
    # the rule is exact through degree 2L+1, so a degree-(L+1) basis
    # function projects to zero on degrees <= L
    L = 12
    for n in (1, 3):
        high = harmonic_basis_function(n, L + 1, degree=L + 1)
        rule = quadrature_for_degree(n, L + 1, oversample=2)
        low = analyze(synthesize(high, rule.nodes), rule, L, axis=high.axis)
        assert np.max(np.abs(low.coeffs)) < 1e-10


def test_constant_on_s3_coefficient():
    rule = zonal_quadrature(3, 32)
    u = analyze(np.ones(rule.size), rule, 12)
    assert abs(u.coeffs[0] - math.sqrt(2 * math.pi**2)) < 1e-12
    assert np.max(np.abs(u.coeffs[1:])) < 1e-12


def test_integrate_constants():
    rule1 = circle_quadrature(64)
    assert abs(integrate(np.ones(64), rule1) - TWO_PI) < 1e-12
    rule3 = zonal_quadrature(3, 32)
    total = integrate(np.ones(rule3.size), rule3)
    assert abs(total - 2 * math.pi**2) / (2 * math.pi**2) < 1e-14


def test_integrate_t_squared_beta_oracle():
    # closed form: |S^2| B(3/2, 3/2) = pi^2/2 (mean of t^2 is 1/(n+1))
    rule = zonal_quadrature(3, 32)
    got = integrate(rule.nodes**2, rule)
    expected = sphere_surface_area(3) * math.gamma(1.5) ** 2 / math.gamma(3.0)
    assert abs(got - expected) < 1e-12
    assert abs(expected - math.pi**2 / 2) < 1e-13


def test_gauss_exactness_against_beta():
    # the K-point rule integrates t^d exactly for d <= 2K-1; closed form
    # from the Beta integral B(r + 1/2, n/2) for d = 2r
    n, K = 3, 8
    rule = zonal_quadrature(n, K)
    area = sphere_surface_area(n)
    for d in range(0, 2 * K):
        got = integrate(rule.nodes**d, rule)
        if d % 2 == 1:
            expected = 0.0
        else:
            r = d // 2
            expected = area * math.gamma(r + 0.5) * math.gamma(n / 2) / math.gamma(r + 0.5 + n / 2)
        assert abs(got - expected) < 1e-12 * max(1.0, abs(expected)), d


# the exponents a = (n - 2)/2 of S^3, S^5, S^9 and the -5/6 of counterexample-sin
JACOBI_EXPONENTS = (0.5, 1.5, 3.5, -5.0 / 6.0)


@pytest.mark.parametrize("a", JACOBI_EXPONENTS)
@pytest.mark.parametrize("K", (8, 66, 260))
def test_roots_jacobi_integrates_beta_moments(a, K):
    # int t^{2j} (1 - t^2)^a dt = B(j + 1/2, a + 1), exact for 2j <= 2K - 1
    t, w = roots_jacobi(K, a)
    for j in range(K):
        beta = math.exp(math.lgamma(j + 0.5) + math.lgamma(a + 1.0) - math.lgamma(j + a + 1.5))
        assert abs(float(w @ t ** (2 * j)) - beta) < 1e-11 * beta, j


@pytest.mark.parametrize(
    "a, K",
    [(a, K) for a in JACOBI_EXPONENTS[:3] for K in (8, 66, 260)] + [(-5.0 / 6.0, 8), (-5.0 / 6.0, 66)],
)
def test_roots_jacobi_matches_scipy(a, K):
    # at a = -5/6, K = 260 scipy's end weights are 1.7e-9 off a 40-digit
    # reference (this rule: 3e-12), so that case rests on the moment test
    t, w = roots_jacobi(K, a)
    t_ref, w_ref = scipy_roots_jacobi(K, a, a)
    assert np.max(np.abs(t - t_ref)) < 1e-15
    assert np.max(np.abs(w - w_ref) / w_ref) < 1e-9


@pytest.mark.parametrize("a", JACOBI_EXPONENTS)
@pytest.mark.parametrize("K", (1, 2, 7, 66))
def test_roots_jacobi_is_symmetric(a, K):
    t, w = roots_jacobi(K, a)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(t) > 0) and np.all(w > 0)
    if K % 2 == 1:
        assert t[K // 2] == 0.0


def test_roots_jacobi_rejects_bad_arguments():
    for K, a in ((0, 0.5), (4, -1.0), (4, float("nan"))):
        with pytest.raises(ValueError):
            roots_jacobi(K, a)


def test_weights_sum_to_measure():
    for n in (1, 3, 5):
        rule = quadrature_for_degree(n, 32)
        mu = sphere_measure(n)
        assert abs(float(np.sum(rule.weights)) - mu) / mu < 1e-12


def test_parseval():
    rng = np.random.default_rng(2)
    for n, L in ((1, 64), (3, 48), (5, 32)):
        u = random_band_limited(n, L, L, rng)
        rule = quadrature_for_degree(n, L, oversample=2)
        vals = synthesize(u, rule.nodes)
        lhs = integrate(vals * vals, rule)
        rhs = u.norm_sq()
        assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_analyze_linearity():
    rng = np.random.default_rng(3)
    L = 16
    rule = quadrature_for_degree(1, L, oversample=2)
    f = rng.standard_normal(rule.size)
    g = rng.standard_normal(rule.size)
    a, b = 1.7, -0.3
    combo = analyze(a * f + b * g, rule, L)
    parts = analyze(f, rule, L).scaled(a) + analyze(g, rule, L).scaled(b)
    assert np.max(np.abs(combo.coeffs - parts.coeffs)) < 1e-13


def test_insufficient_nodes():
    with pytest.raises(InsufficientNodes):
        analyze(np.ones(16), circle_quadrature(16), 8)  # needs 2L+2 = 18
    with pytest.raises(InsufficientNodes):
        analyze(np.ones(8), zonal_quadrature(3, 8), 8)  # needs L+1 = 9


def test_positivity_surrogate():
    one = constant_function(1, 1.0, 16)
    assert min_on_grid(one) > 0.999999
    dip = one + harmonic_basis_function(1, 1, 16).scaled(-2.0)
    assert min_on_grid(dip) < 0.0


def test_json_round_trip():
    rng = np.random.default_rng(4)
    for n in (1, 3):
        u = random_band_limited(n, 12, 12, rng)
        v = loads(dumps(u))
        assert v.n == u.n and v.kind == u.kind
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(v.coeffs - u.coeffs)) <= 1e-15 * scale


def test_derivative_synthesis_is_exact():
    u = harmonic_basis_function(1, 3, 8, component="sin")  # sin(3 th)/sqrt(pi)
    theta = np.linspace(0.1, 6.0, 11)
    d1 = synthesize(u, theta, deriv=1)
    assert np.max(np.abs(d1 - 3 * np.cos(3 * theta) / math.sqrt(math.pi))) < 1e-13
    d2 = synthesize(u, theta, deriv=2)
    assert np.max(np.abs(d2 + 9 * np.sin(3 * theta) / math.sqrt(math.pi))) < 1e-12


@pytest.mark.parametrize("L", [16, 64, 128])
def test_derivative_synthesis_matches_termwise_closed_form(L):
    rng = np.random.default_rng(L)
    u = SpectralFunction(1, rng.standard_normal(2 * L + 1))
    theta = np.concatenate([[0.0, math.pi], rng.uniform(0.0, TWO_PI, 40)])
    a, b = u.coeffs[1::2], u.coeffs[2::2]
    j = np.arange(1, L + 1)
    for k in (1, 2, 3):
        # d^k/dth^k cos(j th) = j^k cos(j th + k pi/2), and likewise for sin
        phase = np.outer(theta, j) + k * math.pi / 2
        expected = (np.cos(phase) @ (j**k * a) + np.sin(phase) @ (j**k * b)) / math.sqrt(math.pi)
        bound = 1e-13 * float(np.sum(j**k * np.hypot(a, b))) / math.sqrt(math.pi)
        assert float(np.abs(synthesize(u, theta, deriv=k) - expected).max()) <= bound
    with pytest.raises(ValueError):
        synthesize(u, theta, deriv=-1)
    with pytest.raises(ValueError):
        synthesize(harmonic_basis_function(3, 2, degree=8), np.array([0.5]), deriv=1)


def test_readme_flat_identity_trials_stay_at_rounding(capsys):
    assert main(["flat-identity-check", "--m", "1", "--L", "64", "--trials", "50"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 50
    assert max(float(r["rel_error"]) for r in rows) < 1e-14


def test_zonal_axis_must_have_n_plus_one_entries():
    with pytest.raises(AxisMismatch):
        SpectralFunction(3, [1.0, 0.0, 0.0], axis=[1.0, 0.0])
    assert SpectralFunction(3, [1.0, 0.0, 0.0], axis=[0.0, 2.0, 0.0, 0.0]).axis[1] == 1.0


def test_circle_constructors_reject_a_given_axis():
    # a circle function carries no axis; a dropped axis would silently
    # ignore the rotation the caller asked for
    rng = np.random.default_rng(2)
    builds = (
        lambda axis: constant_function(1, 1.0, 8, axis=axis),
        lambda axis: harmonic_basis_function(1, 1, 8, axis=axis),
        lambda axis: random_band_limited(1, 8, 4, rng, axis=axis),
        lambda axis: random_positive_function(1, 8, 4, rng, axis=axis),
    )
    for build in builds:
        assert build(None).axis is None
        for axis in (np.array([0.0, 1.0]), north_pole(1), north_pole(3)):
            with pytest.raises(AxisMismatch):
                build(axis)


@pytest.mark.parametrize("n", [1, 3])
def test_harmonic_basis_function_rejects_degrees_outside_the_truncation(n):
    for k in (-1, 17):
        with pytest.raises(ValueError):
            harmonic_basis_function(n, k, 16)


@pytest.mark.parametrize("n", [1, 3])
def test_harmonic_basis_function_rejects_an_unknown_component(n):
    with pytest.raises(ValueError):
        harmonic_basis_function(n, 2, 16, component="Cos")


def test_harmonic_basis_function_slots():
    # circle degree k >= 1: cos at 2k - 1, sin at 2k; degree 0 and zonal
    # functions have one element, which both components give
    assert harmonic_basis_function(1, 3, 8).coeffs[5] == 1.0
    assert harmonic_basis_function(1, 3, 8, component="sin").coeffs[6] == 1.0
    for n, k in ((1, 0), (3, 0), (3, 5)):
        for component in ("cos", "sin"):
            u = harmonic_basis_function(n, k, 8, component=component)
            assert u.coeffs[k] == 1.0 and u.norm_sq() == 1.0


# ---------------------------------------------------------------------------
# off-grid evaluation
# ---------------------------------------------------------------------------


def _off_grid_points(n, L):
    """Ends of the range, random points and dilation-mapped 4x nodes."""
    rng = np.random.default_rng(11)
    if n == 1:
        nodes = circle_quadrature(4 * (2 * L + 2)).nodes
        mapped = [_dilation_angle_map(nodes, lam) for lam in (0.3, 3.0)]
        return np.concatenate([[0.0, math.pi, TWO_PI], rng.uniform(0.0, TWO_PI, 50), *mapped])
    nodes = zonal_quadrature(n, 4 * (L + 1)).nodes
    near = 1.0 - np.array([1e-15, 5e-16, 2.2e-16])
    mapped = [axis_dilation_t_map(nodes, lam) for lam in (0.3, 3.0)]
    return np.concatenate([[-1.0, 1.0], near, -near, rng.uniform(-1.0, 1.0, 50), *mapped])


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("L", [0, 1, 2, 16, 64, 128])
def test_off_grid_values_match_the_basis(n, L):
    c = np.random.default_rng(L + n).standard_normal(2 * L + 1 if n == 1 else L + 1)
    u = SpectralFunction(n, c, None if n == 1 else north_pole(n))
    points = _off_grid_points(n, L)
    expected = basis_matrix(n, L, points).T @ c
    bound = 2e-13 * float(np.abs(expected).max())
    assert float(np.abs(synthesize(u, points) - expected).max()) <= bound
    for i in (0, 1, 3, -1):
        value = synthesize(u, points[[i]])
        assert value.shape == (1,)
        assert abs(float(value[0]) - expected[i]) <= bound


def _termwise(d, phase, deriv=0):
    """Re sum_j (i j)^deriv d_j exp(i j phase), term by term in long double."""
    ld = np.longdouble
    j = np.arange(d.size)
    dk = d * (1j * j) ** deriv
    angles = np.outer(np.asarray(phase, dtype=ld), j.astype(ld))
    return np.cos(angles) @ dk.real.astype(ld) - np.sin(angles) @ dk.imag.astype(ld), dk


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("count", [1, 2, 3, 17, 65, 1025])
def test_blocked_evaluation_matches_the_termwise_sum(n, count):
    # count = L + 1 complex coefficients d_j; 17 is no perfect square, so
    # the last block is padded.  A point rounded to a float moves z^j by
    # j ulps, hence the bound in sum (1 + j) |d_j|
    L = count - 1
    rng = np.random.default_rng(count + n)
    c = rng.standard_normal(2 * L + 1 if n == 1 else L + 1)
    if n == 1:
        u = SpectralFunction(1, c)
        d = np.concatenate([[c[0] / math.sqrt(TWO_PI)], (c[1::2] - 1j * c[2::2]) / math.sqrt(math.pi)])
        mapped = [_dilation_angle_map(circle_quadrature(32).nodes, lam) for lam in (0.3, 3.0)]
        points = np.concatenate([[0.0, math.pi, TWO_PI], rng.uniform(0.0, TWO_PI, 20), *mapped])
        phase = points
        orders = (0, 1, 2, 3)
    else:
        u = SpectralFunction(n, c, north_pole(n))
        d = (spectral._chebyshev_matrix(n, L) @ c).astype(complex)
        near = 1.0 - np.array([1e-15, 2.2e-16])
        mapped = [axis_dilation_t_map(zonal_quadrature(n, 32).nodes, lam) for lam in (0.3, 3.0)]
        points = np.concatenate([[-1.0, 1.0], near, -near, rng.uniform(-1.0, 1.0, 20), *mapped])
        phase = np.arccos(points.astype(np.longdouble))
        orders = (0,)
    weight = 1.0 + np.arange(count)
    for k in orders:
        expected, dk = _termwise(d, phase, k)
        bound = 1e-15 * float(weight @ np.abs(dk))
        got = synthesize(u, points, deriv=k)
        assert float(np.abs(got.astype(np.longdouble) - expected).max()) <= bound
        for i in (0, 1, -1):
            one = synthesize(u, points[[i]], deriv=k)
            assert one.shape == (1,)
            assert abs(float(one[0]) - float(expected[i])) <= bound
        assert synthesize(u, np.empty(0), deriv=k).shape == (0,)


def test_clear_caches_empties_the_chebyshev_cache():
    synthesize(harmonic_basis_function(3, 2, degree=8), np.array([0.5]))
    assert spectral._chebyshev_matrix.cache_info().currsize > 0
    assert not spectral._chebyshev_matrix(3, 8).flags.writeable
    clear_caches()
    assert spectral._chebyshev_matrix.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the discretization cache
# ---------------------------------------------------------------------------


def _cold():
    clear_caches()
    packed_multipliers.cache_clear()


def _trace_repr(trace):
    return repr(
        (
            trace.values,
            trace.grad_norms,
            trace.min_values,
            trace.barycenter_norms,
            trace.termination_reason,
            trace.iterations,
            list(trace.final.coeffs),
        )
    )


def test_minimize_cold_and_warm_cache_agree_bit_for_bit():
    for n, m, L in ((1, 1, 16), (3, 2, 16)):
        u0 = random_positive_function(n, L, L // 4, np.random.default_rng(3))
        config = OptimizerConfig(degree=L, max_iter=25)
        _cold()
        cold = _trace_repr(minimize(u0, m, config))
        warm = _trace_repr(minimize(u0, m, config))
        assert cold == warm


def test_cached_arrays_are_read_only():
    for n in (1, 3):
        disc = discretization(n, 8, 4)
        arrays = (disc.rule.nodes, disc.rule.weights, disc.basis, disc.grid, disc.grid_basis)
        for a in arrays + (packed_multipliers(n, 2, 8),):
            with pytest.raises(ValueError):
                a[0] = 0.0
    # results computed from cached arrays stay writable
    u = apply_operator(constant_function(1, 1.0, 8), 1)
    u.coeffs[0] = 0.0


def test_oversampling_factors_do_not_alias():
    for n in (1, 3):
        d2, d4 = discretization(n, 12, 2), discretization(n, 12, 4)
        assert d2 is not d4
        assert d4.rule.size == 2 * d2.rule.size
        assert d2.basis.shape[1] == d2.rule.size and d4.basis.shape[1] == d4.rule.size
        assert discretization(n, 12, 2) is d2 and discretization(n, 12, 4) is d4


def test_zonal_grid_appends_the_poles():
    disc = discretization(3, 8, 4)
    assert disc.grid[0] == -1.0 and disc.grid[-1] == 1.0
    assert np.array_equal(disc.grid[1:-1], disc.rule.nodes)
    circle = discretization(1, 8, 4)
    assert circle.grid is circle.rule.nodes and circle.grid_basis is circle.basis


def test_discretization_over_the_byte_bound_is_not_stored(monkeypatch):
    _cold()
    small = discretization(1, 4, 2)
    monkeypatch.setattr(spectral, "DISCRETIZATION_CACHE_BYTES", 2 * small.nbytes)
    big = discretization(1, 32, 4)
    assert big.nbytes > spectral.DISCRETIZATION_CACHE_BYTES
    again = discretization(1, 32, 4)
    assert again is not big
    assert np.array_equal(again.basis, big.basis)
    assert discretization(1, 4, 2) is small
    # a second entry that would pass the bound evicts the least recently used
    other = discretization(1, 4, 3)
    assert other.nbytes + small.nbytes > spectral.DISCRETIZATION_CACHE_BYTES
    assert discretization(1, 4, 3) is other
    assert discretization(1, 4, 2) is not small


def _node_coordinates(rule):
    """(cos th, sin th) on the circle, the axis cosine t on a zonal rule."""
    if rule.n == 1:
        return np.column_stack([np.cos(rule.nodes), np.sin(rule.nodes)])
    return rule.nodes


def _hand_built(rule, degree):
    """A discretization on a caller's rule with its grid given explicitly."""
    basis = basis_matrix(rule.n, degree, rule.nodes)
    points = _node_coordinates(rule)
    if rule.n == 1:
        return spectral.Discretization(rule, degree, basis, rule.nodes, basis, points)
    grid = np.concatenate([[-1.0], rule.nodes, [1.0]])
    return spectral.Discretization(rule, degree, basis, grid, basis_matrix(rule.n, degree, grid), points)


@pytest.mark.parametrize("n,L", [(1, 24), (3, 24), (3, 64)])
def test_grid_minimum_and_first_moment_keep_their_bits(n, L):
    # pinned to the expressions they replaced: the pole minimum over numpy
    # scalars, and the first moment, the ball moment at a = 0, as the plain
    # weighted sum over the node coordinates
    own = zonal_quadrature(n, 3 * L + 7) if n != 1 else circle_quadrature(6 * L + 7)
    rng = np.random.default_rng(L + n)
    cached = discretization(n, L, 4)
    assert np.array_equal(cached.points, _node_coordinates(cached.rule))
    for disc in (cached, _hand_built(own, L)):
        K, w = disc.rule.size, disc.rule.weights
        for _ in range(20):
            u = random_positive_function(n, L, L // 2, rng, amplitude=float(rng.uniform(0.3, 1.2)))
            c, vals = u.coeffs, disc.values(u.coeffs)
            if disc.grid is disc.rule.nodes:
                old_min = float(vals.min())
            else:
                old_min = float(min(vals.min(), (disc.grid_basis[:, :: K + 1].T @ c).min()))
            assert disc.grid_minimum(c, vals) == old_min
            moment = spectral._ball_moment(disc, vals, np.zeros(2) if n == 1 else 0.0)
            old = disc.points.T @ (w * vals) if n == 1 else float(w @ (vals * disc.rule.nodes))
            assert np.array_equal(moment, old)
