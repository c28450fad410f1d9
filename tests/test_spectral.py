import csv
import dataclasses
import gc
import io
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer
from scipy.special import roots_jacobi as scipy_roots_jacobi

from confsphere import functional, mobius, spectral
from confsphere.cli import main
from confsphere.errors import AxisMismatch, InsufficientNodes
from confsphere.extremize import OptimizerConfig, minimize
from confsphere.gjms import apply_operator, packed_multipliers
from confsphere.geometry import AxisDilation, north_pole, sphere_measure
from confsphere.spectral import (
    SpectralFunction,
    analyze,
    basis_matrix,
    circle_quadrature,
    clear_caches,
    constant_function,
    discretization,
    from_json_dict,
    harmonic_basis_function,
    integrate,
    min_on_grid,
    quadrature_for_degree,
    rule_size,
    random_band_limited,
    random_positive_function,
    roots_jacobi,
    synthesize,
    to_json_dict,
    zonal_quadrature,
)
from pointwise_maps import axis_dilation_t_map

TWO_PI = 2 * math.pi


def _dilation_angle_map(theta, lam):
    """Image angle of the dilation of scale lam about the angle-zero pole, in [0, 2 pi)."""
    half = theta / 2.0
    return np.mod(2.0 * np.arctan2(np.sin(half), lam * np.cos(half)), TWO_PI)


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
    expected = sphere_measure(2) * math.gamma(1.5) ** 2 / math.gamma(3.0)
    assert abs(got - expected) < 1e-12
    assert abs(expected - math.pi**2 / 2) < 1e-13


@pytest.mark.parametrize("n", [3, 5, 9])
@pytest.mark.parametrize("M", [8, 13])
def test_angle_grid_exactness_against_scipy_integrals(n, M):
    # t^d = cos^d th times the weight sin^{n-1} th is a cosine polynomial of
    # degree d + n - 1: the grid of M + 1 nodes integrates it exactly for
    # d < 2M - (n - 1) and misses at d = 2M - (n - 1), where cos(2M th)
    # aliases to a constant.  Reference: scipy's quad with the algebraic
    # weight, and 0 for odd d
    a = (n - 2) / 2.0
    rule = zonal_quadrature(n, M + 1)
    area = sphere_measure(n - 1)
    last = 2 * M - (n - 1)
    for d in range(last + 1):
        expected = 0.0 if d % 2 else area * quad(lambda t: t**d, -1.0, 1.0, weight="alg", wvar=(a, a), epsrel=1e-13)[0]
        err = abs(integrate(rule.nodes**d, rule) - expected)
        if d < last:
            assert err < 1e-13 * max(1.0, abs(expected)), d
        else:
            assert err > 1e-9 * abs(expected), d


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
        analyze(np.ones(8), zonal_quadrature(3, 8), 8)  # needs rule_size(3, 8) = L + 3 = 11


def test_positivity_surrogate():
    one = constant_function(1, 1.0, 16)
    assert min_on_grid(one) > 0.999999
    dip = one + harmonic_basis_function(1, 1, 16).scaled(-2.0)
    assert min_on_grid(dip) < 0.0


def test_json_round_trip():
    rng = np.random.default_rng(4)
    for n in (1, 3):
        u = random_band_limited(n, 12, 12, rng)
        v = from_json_dict(json.loads(json.dumps(to_json_dict(u))))
        assert v.n == u.n and v.rep is u.rep
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
        synthesize(u, theta, deriv=1.5)
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


@pytest.mark.parametrize("n", [1, 3])
def test_coefficients_are_finite_or_refused_without_a_warning(n):
    # entries at 1e200 are accepted, and the finiteness test raises no
    # overflow warning on them (a sum of squares would); NaN and either
    # infinity are refused
    axis = None if n == 1 else north_pole(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = SpectralFunction(n, np.full(5, 1e200), axis)
    assert (u.coeffs == 1e200).all()
    for bad in (math.nan, math.inf, -math.inf):
        c = np.ones(5)
        c[3] = bad
        with pytest.raises(ValueError, match="finite"):
            SpectralFunction(n, c, axis)


@pytest.mark.parametrize("n", [1, 3])
def test_coefficients_form_one_flat_array_or_are_refused(n):
    # one list of lists, a list per coefficient or a bare number is refused;
    # nested lists used to pass and fail later inside numpy
    axis = None if n == 1 else north_pole(n)
    c = constant_function(n, 1.0, 8).coeffs
    for bad in (c[None, :], c[:, None], c[0]):
        with pytest.raises(ValueError, match="one flat array"):
            SpectralFunction(n, bad, axis)


def test_json_dim_must_be_an_integer():
    # int() truncated 1.9 and 3.7 and took true for 1
    for u in (constant_function(1, 1.0, 8), constant_function(3, 1.0, 8)):
        data = to_json_dict(u)
        assert from_json_dict(data).n == u.n
        for dim in (u.n + 0.9, float(u.n), True, str(u.n)):
            with pytest.raises(ValueError, match="dim must be an integer"):
                from_json_dict(dict(data, dim=dim))


def test_json_kind_must_be_the_kind_of_its_dim():
    # "kind" was never read, so a circle file of kind "zonal" loaded as a
    # circle function; a file without "kind" still loads by its dim
    for u in (constant_function(1, 1.0, 8), constant_function(3, 1.0, 8)):
        data = to_json_dict(u)
        assert data["kind"] == u.rep.kind and from_json_dict(data).rep is u.rep
        assert from_json_dict({k: v for k, v in data.items() if k != "kind"}).rep is u.rep
        for kind in {"circle", "zonal", "sphere", None} - {u.rep.kind}:
            with pytest.raises(ValueError, match="kind"):
                from_json_dict(dict(data, kind=kind))


def test_a_unit_axis_is_kept_and_any_other_normalized():
    # an axis whose norm is exactly 1.0 is kept bit for bit, as v / 1.0 is v;
    # any other is divided by its norm, as before
    rng = np.random.default_rng(4)
    kept = 0
    for _ in range(200):
        v = rng.standard_normal(4)
        v /= math.sqrt(float(v.dot(v)))
        u = SpectralFunction(3, np.ones(3), v)
        if math.sqrt(float(v.dot(v))) == 1.0:
            kept += 1
            assert u.axis is v
        assert u.axis.tobytes() == (v / math.sqrt(float(v.dot(v)))).tobytes()
    assert kept > 50
    w = np.array([0.0, 3.0, 0.0, 4.0])
    u = SpectralFunction(3, np.ones(3), w)
    assert u.axis.tolist() == [0.0, 0.6, 0.0, 0.8] and w.tolist() == [0.0, 3.0, 0.0, 4.0]
    assert SpectralFunction(3, np.ones(3), [1, 0, 0, 0]).axis.dtype == float
    with pytest.raises(ValueError, match="zero vector"):
        SpectralFunction(3, np.ones(3), np.zeros(4))


@pytest.mark.parametrize("n,m", [(3, 2), (5, 3)])
def test_a_zonal_axis_at_any_scale_is_normalized(n, m):
    # the squared norm of c xi underflows for |c| below about 1e-154 and
    # overflows above 1e154, so c xi was refused as the zero vector or became
    # a NaN or zero axis with a RuntimeWarning.  Such an axis is divided by
    # its largest entry first: each c xi gives a unit axis along xi within
    # 1e-15 and the same I, without a warning
    rng = np.random.default_rng(n)
    xi = rng.standard_normal(n + 1)
    xi /= math.sqrt(float(xi.dot(xi)))
    u = random_positive_function(n, 8, 4, rng)
    want = functional.functional_value(SpectralFunction(n, u.coeffs, xi), m)
    for c in 10.0 ** np.arange(-300.0, 301.0, 20.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = SpectralFunction(n, u.coeffs, c * xi)
        assert abs(math.sqrt(float(v.axis.dot(v.axis))) - 1.0) <= 1e-15, c
        assert np.abs(v.axis - xi).max() <= 1e-15, c
        assert functional.functional_value(v, m) == want, c


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
    # the evaluators go with their discretizations: once the caches are
    # cleared, nothing keeps a discretization that the entry points and the
    # descent evaluated on
    held = []
    for n, m in ((1, 1), (3, 2)):
        u0 = random_positive_function(n, 8, 2, np.random.default_rng(0))
        functional.functional_value(u0, m)
        minimize(u0, m, OptimizerConfig(degree=8, max_iter=3))
        disc = discretization(n, 8, 4)
        assert functional.evaluator(n, m, 8) is disc.evaluators[m]
        held.append(weakref.ref(disc))
    del disc
    clear_caches()
    gc.collect()
    assert spectral._chebyshev_matrix.cache_info().currsize == 0
    assert [ref() for ref in held] == [None, None]


def test_a_dropped_discretization_takes_its_evaluators_along(monkeypatch):
    # the byte bound drops the least recently used discretization, and the
    # evaluators built on it go too: none keeps it alive.  A discretization
    # over the bound is built for its call, and so is its evaluator
    _cold()
    u = random_positive_function(1, 4, 2, np.random.default_rng(0))
    functional.functional_value(u, 1)
    first = discretization(1, 4, 4)
    ev = first.evaluators[1]
    assert functional.evaluator(1, 1, 4) is ev and ev.disc is first
    dropped = weakref.ref(first)
    del first, ev
    monkeypatch.setattr(spectral, "DISCRETIZATION_CACHE_BYTES", discretization(1, 4, 4).nbytes + 1)
    other = discretization(1, 4, 3)
    assert dropped() is None
    big = discretization(1, 16, 4)
    assert big.nbytes > spectral.DISCRETIZATION_CACHE_BYTES and big.evaluators is None
    built = functional.evaluator(1, 1, 16)
    assert built is not functional.evaluator(1, 1, 16)
    assert built.disc.evaluators is None
    assert discretization(1, 4, 3) is other and other.evaluators == {}


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
        arrays = (disc.rule.nodes, disc.rule.weights, disc.basis, disc.basis_t, disc.points, packed_multipliers(n, 2, 8))
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0
    # results computed from cached arrays stay writable
    u = apply_operator(constant_function(1, 1.0, 8), 1)
    u.coeffs[0] = 0.0


def test_oversampling_factors_do_not_alias():
    for n in (1, 3):
        d2, d4 = discretization(n, 12, 2), discretization(n, 12, 4)
        assert d2 is not d4
        assert (d2.rule.size, d4.rule.size) == (rule_size(n, 12, 2), rule_size(n, 12, 4))
        assert d4.rule.size == 2 * d2.rule.size - (0 if n == 1 else 2)
        assert d2.basis.shape[1] == d2.rule.size and d4.basis.shape[1] == d4.rule.size
        assert discretization(n, 12, 2) is d2 and discretization(n, 12, 4) is d4


def test_zonal_grid_ends_at_the_poles():
    # the positivity grid is the rule nodes, from t = 1 to t = -1: a dip
    # below every other node value at a pole is what min_on_grid reports
    disc = discretization(3, 8, 4)
    assert (disc.rule.nodes[0], disc.rule.nodes[-1]) == (1.0, -1.0)
    for end, t in ((0, 1.0), (-1, -1.0)):
        c = constant_function(3, 1.0, 8).coeffs - 0.1 * disc.basis[:, end]
        u = SpectralFunction(3, c, north_pole(3))
        values = disc.basis.T @ c
        assert values[end] < np.delete(values, end).min()
        assert min_on_grid(u) == values[end]
        assert min_on_grid(u) == (basis_matrix(3, 8, np.array([t])).T @ c)[0]
    circle = discretization(1, 8, 4)
    c = constant_function(1, 1.0, 8).coeffs
    assert min_on_grid(SpectralFunction(1, c, None)) == (circle.basis.T @ c).min()


@pytest.mark.parametrize("L", [8, 32])
def test_zonal_poles_are_a_view_of_the_grid_basis(L):
    # the grid basis is the node basis: its end columns, the basis at the
    # poles, are views of it and not stored apart
    for n in (3, 5):
        disc = discretization(n, L, 4)
        assert np.array_equal(disc.basis, basis_matrix(n, L, disc.rule.nodes))
        for pole in (disc.basis[:, 0], disc.basis_t[-1]):
            assert np.shares_memory(pole, disc.basis)


@pytest.mark.parametrize("L", [8, 32])
def test_zonal_poles_are_the_basis_at_the_poles(L):
    # the positivity grid is the rule nodes, the poles t = 1, -1 first and
    # last on a zonal rule: the end columns of the basis are the basis there,
    # and the end points are 1 and -1 on the unit circle, with no imaginary
    # part.  The points are read-only and counted once
    for n in (3, 5):
        disc = discretization(n, L, 4)
        assert np.array_equal(disc.basis[:, [0, -1]], basis_matrix(n, L, np.array([1.0, -1.0])))
        assert disc.points[0] == 1.0 and disc.points[-1] == -1.0
        t = disc.rule.nodes
        assert disc.points.tobytes() == (t + 1j * np.sqrt(np.maximum((1.0 - t) * (1.0 + t), 0.0))).tobytes()
        with pytest.raises(ValueError):
            disc.points[0] = 0.0
        held = (disc.rule.nodes, disc.rule.weights, disc.basis, disc.points)
        assert disc.nbytes == sum(a.nbytes for a in held)
    circle = discretization(1, L, 4)
    held = (circle.rule.nodes, circle.rule.weights, circle.basis, circle.points)
    assert circle.nbytes == sum(a.nbytes for a in held)
    # the transposed basis is a view of the basis, counted with it
    for disc in (discretization(3, L, 4), circle):
        assert np.shares_memory(disc.basis_t, disc.basis)
        assert np.array_equal(disc.basis_t, disc.basis.T)


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
    """The unit nodes: cos th + i sin th, with the bits of both, on the circle; t + i sqrt((1 - t)(1 + t)) on a zonal rule."""
    z = np.empty(rule.size, dtype=complex)
    if rule.n == 1:
        z.real, z.imag = np.cos(rule.nodes), np.sin(rule.nodes)
    else:
        t = rule.nodes
        z.real, z.imag = t, np.sqrt(np.maximum((1.0 - t) * (1.0 + t), 0.0))
    return z


def _hand_built(rule, degree):
    """A discretization on a caller's rule."""
    basis = basis_matrix(rule.n, degree, rule.nodes)
    return spectral.Discretization(rule, degree, basis, basis.T, _node_coordinates(rule))


@pytest.mark.parametrize("n,L", [(1, 24), (3, 24), (3, 64)])
def test_grid_minimum_and_first_moment_keep_their_bits(n, L):
    # pinned to plain expressions: the scan's node values as the transposed
    # basis times c, the grid minimum as their minimum, the poles among them
    # on a zonal rule, and the first moment, the ball moment at a = 0, as the
    # plain weighted sum over the unit nodes, its real part on a zonal rule
    own = zonal_quadrature(n, 3 * L + 7) if n != 1 else circle_quadrature(6 * L + 7)
    rng = np.random.default_rng(L + n)
    cached = discretization(n, L, 4)
    assert np.array_equal(cached.points, _node_coordinates(cached.rule))
    for disc in (cached, _hand_built(own, L)):
        w = disc.rule.weights
        for _ in range(20):
            u = random_positive_function(n, L, L // 2, rng, amplitude=float(rng.uniform(0.3, 1.2)))
            c, vals = u.coeffs, disc.basis.T.dot(u.coeffs)
            scanned, low, high = disc.scan(c)
            assert scanned.tobytes() == vals.tobytes()
            assert (low, high) == (vals.min(), vals.max())
            moment = disc.rep.moment(disc, w * vals, 0j if n == 1 else 0.0)
            old = (w * vals) @ disc.points
            assert np.array_equal(moment, old if n == 1 else old.real)


@pytest.mark.parametrize("n", [1, 3])
def test_negative_degrees_and_empty_coefficients_are_refused(n):
    # a degree below 0 once gave a function without coefficients (degree -1)
    # or an IndexError or numpy's "negative dimensions"; each constructor now
    # names the degree, and no function holds an empty coefficient array
    rng = np.random.default_rng(0)
    constructors = (
        lambda: constant_function(n, 1.0, -1),
        lambda: harmonic_basis_function(n, 0, -1),
        lambda: random_band_limited(n, -1, 1, rng),
        lambda: random_positive_function(n, -1, 1, rng),
    )
    for build in constructors:
        with pytest.raises(ValueError, match="degree -1"):
            build()
    with pytest.raises(ValueError, match="at least the degree-0"):
        SpectralFunction(n, np.array([]), None if n == 1 else north_pole(n))
    assert constant_function(n, 1.0, 0).degree == 0


@pytest.mark.parametrize("n", [3, 5, 9])
@pytest.mark.parametrize("L", [8, 32, 64, 128, 256])
def test_zonal_basis_is_orthonormal_on_the_angle_grid(n, L):
    # the grid integrates the products of two degree-L zonal functions
    # exactly at every oversample, so what is left of max |B W B^T - I| is
    # rounding: at most eps (L + 1) (measured: 0.46 of it, 2.6e-14 at (3, 256))
    for oversample in (1, 2, 4):
        rule = quadrature_for_degree(n, L, oversample)
        b = basis_matrix(n, L, rule.nodes)
        gram = (b * rule.weights) @ b.T
        assert np.max(np.abs(gram - np.eye(L + 1))) <= 2.0**-52 * (L + 1), oversample


@pytest.mark.parametrize("n", [3, 5, 9])
def test_zonal_normalization_matches_mpmath(n):
    # the running product of the exact ratios h_{a+1} / h_a, one rounding
    # each, against 40 digits: within 1e-15 relative up to L = 256
    # (measured: 6.6e-16 at n = 9)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        nu = mp.mpf(n - 1) / 2
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        for a, got in enumerate(spectral._zonal_normalization(n, 256)):
            h = mp.pi * 2 ** (1 - 2 * nu) * mp.gamma(a + 2 * nu) / (mp.factorial(a) * (a + nu) * mp.gamma(nu) ** 2)
            assert abs(mp.mpf(float(got)) * mp.sqrt(area * h) - 1) <= 1e-15, a


def test_zonal_rules_need_no_eigensolver(monkeypatch):
    # the angle grid is built in O(K) from sines: with the Golub-Welsch
    # rule and all of numpy.linalg made to raise, zonal discretizations are
    # built and used at n = 3, 5 and 9.  The pole basis, the zonal gauge
    # kernels and the lgamma norms are gone
    class Refused:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.linalg.{name} was called")

    def refused(*args):
        raise AssertionError("roots_jacobi was called")

    monkeypatch.setattr(spectral, "roots_jacobi", refused)
    monkeypatch.setattr(np, "linalg", Refused())
    clear_caches()
    for n, m in ((3, 2), (5, 3), (9, 5)):
        for L in (32, 64):
            for oversample in (2, 4):
                assert discretization(n, L, oversample).rule.size == rule_size(n, L, oversample)
            u = random_positive_function(n, L, 6, np.random.default_rng(n + L))
            pulled = mobius.pullback(u, AxisDilation(u.axis, 1.5), m)
            assert abs(functional.functional_value(pulled, m) / functional.functional_value(u, m) - 1.0) < 1e-6
            assert mobius.find_center(u, m).converged
    clear_caches()
    fields = {f.name for f in dataclasses.fields(spectral.Discretization)}
    assert not {"poles", "sin_sq"} & fields
    assert not {"image", "moment", "node_arrays", "scan"} & set(vars(type(spectral.ZONAL)))
    assert not hasattr(spectral, "_log_gegenbauer_norm_sq")
